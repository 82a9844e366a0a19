"""Directed labeled graph extracted from one hardware design."""
from __future__ import annotations

from dataclasses import dataclass, field

AST = "AST"
DFG = "DFG"


@dataclass
class GraphNode:
    id: int
    label: str
    name: str | None = None


@dataclass
class HWGraph:
    """Graph view of a design: either a syntax tree or a data-flow graph.

    Node ids are dense (0..|V|-1).  Edges are directed; for AST they point
    parent -> child, for DFG they point dependent -> dependency.
    """

    kind: str
    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    design_name: str = ""

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_adjacency(self) -> list[list[int]]:
        """Successor lists in edge-insertion order."""
        adj: list[list[int]] = [[] for _ in self.nodes]
        for src, dst in self.edges:
            adj[src].append(dst)
        return adj

    def in_degrees(self) -> list[int]:
        deg = [0] * len(self.nodes)
        for _, dst in self.edges:
            deg[dst] += 1
        return deg

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        n = len(self.nodes)
        if n == 0:
            raise ValueError("graph has no nodes")
        if self.kind not in (AST, DFG):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node ids not dense at position {i}")
        for src, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) out of range")
        if self.kind == AST:
            self._validate_tree()

    def _validate_tree(self) -> None:
        n = len(self.nodes)
        if len(self.edges) != n - 1:
            raise ValueError(f"AST must have |V|-1 edges, got {len(self.edges)}")
        deg = self.in_degrees()
        roots = [i for i in range(n) if deg[i] == 0]
        if len(roots) != 1:
            raise ValueError(f"AST must have one root, found {len(roots)}")
        for src, dst in self.edges:
            if src == dst:
                raise ValueError(f"AST contains self-loop at node {src}")
        # acyclicity: preorder walk from the root must reach every node once
        seen = [False] * n
        adj = self.out_adjacency()
        stack = [roots[0]]
        while stack:
            v = stack.pop()
            if seen[v]:
                raise ValueError(f"AST revisits node {v}; not a tree")
            seen[v] = True
            stack.extend(reversed(adj[v]))
        if not all(seen):
            raise ValueError("AST has unreachable nodes")

