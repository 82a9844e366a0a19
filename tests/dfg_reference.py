"""Reference DFG construction: one fragment graph per driven signal, merged,
then renumbered.

Each step builds a whole graph, so the semantics read off one step at a
time.  It is the oracle that the one-pass ``hwgraph.dfg_graph`` must match
byte for byte.
"""
from __future__ import annotations

from hwgnn.errors import EmptyGraphError, UnknownSignalError, VerilogSyntaxError
from hwgnn.hwgraph import DFG, GraphNode, HWGraph, TreeNode, elaborate
from hwgnn.hwgraph.dfg import _GATE_LABEL, DFG_OP_LABELS, Elaborated
from hwgnn.hwgraph.parser import deep_stack


def expr_fragment(elab: Elaborated, root: str) -> HWGraph:
    """Dependency closure of one signal (node 0): each signal once, every
    operation and constant occurrence a node of its own."""
    nodes: list[GraphNode] = []
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    visited: dict[str, int] = {}

    def add_edge(src: int, dst: int) -> None:
        if (src, dst) not in edge_set:
            edge_set.add((src, dst))
            edges.append((src, dst))

    def new_node(label: str, name: str | None) -> int:
        nid = len(nodes)
        nodes.append(GraphNode(nid, label, name))
        return nid

    # worklist of (expression, id of the node depending on it)
    def build(start: TreeNode, parent: int) -> None:
        stack: list[tuple[TreeNode, int]] = [(start, parent)]
        while stack:
            expr, dep = stack.pop()
            if expr.label in ("IntConst", "ParamRef"):
                nid = new_node("const", expr.name)
            elif expr.label == "Identifier":
                assert expr.name is not None
                if expr.name in visited:
                    add_edge(dep, visited[expr.name])
                    continue
                nid = new_node(elab.kinds.get(expr.name, "signal"), expr.name)
                visited[expr.name] = nid
                if expr.name in elab.drivers:
                    stack.append((elab.drivers[expr.name], nid))
            else:
                if expr.label == "_Gate":
                    assert expr.name is not None
                    label = _GATE_LABEL[expr.name]
                elif expr.label == "Cond":
                    label = "Branch"
                else:
                    label = expr.label
                if label not in DFG_OP_LABELS:
                    raise VerilogSyntaxError(f"expression {expr.label} has no dataflow lowering")
                nid = new_node(label, None)
                for child in reversed(expr.children):
                    stack.append((child, nid))
            add_edge(dep, nid)

    if root not in elab.kinds:
        raise UnknownSignalError(f"signal {root!r} is not declared in the elaborated design")
    rid = new_node(elab.kinds[root], root)
    visited[root] = rid
    if root in elab.drivers:
        build(elab.drivers[root], rid)
    return HWGraph(kind=DFG, nodes=nodes, edges=edges)


def dfg_for_signal(tree: TreeNode, signal: str, top: str | None = None) -> HWGraph:
    """Dependency fragment rooted at one signal (node 0)."""
    with deep_stack():
        return expr_fragment(elaborate(tree, top), signal)


def canonical_renumber(g: HWGraph, roots: list[int]) -> HWGraph:
    """Renumber node ids in DFS preorder from the given roots.

    Roots are visited in the given order; successors in edge-insertion
    order.  Every node must be reachable from some root.  Edges come out
    deduplicated and sorted by (src, dst).
    """
    adj = g.out_adjacency()
    order: list[int] = []
    seen = [False] * len(g.nodes)

    def visit(start: int) -> None:
        stack = [start]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            order.append(v)
            stack.extend(reversed(adj[v]))

    for r in roots:
        visit(r)
    if not all(seen):
        missing = [i for i, s in enumerate(seen) if not s]
        raise ValueError(f"nodes unreachable from roots: {missing[:5]}")

    remap = {old: new for new, old in enumerate(order)}
    nodes = [GraphNode(remap[v], g.nodes[v].label, g.nodes[v].name) for v in order]
    edges = sorted({(remap[s], remap[d]) for s, d in g.edges})
    return HWGraph(kind=g.kind, nodes=nodes, edges=edges, design_name=g.design_name)


def merge_dfgs(fragments: list[HWGraph], design_name: str = "") -> HWGraph:
    """Union of fragments with signal nodes unified by hierarchical name.

    Operation and constant nodes stay distinct per fragment.  Output ids are
    renumbered canonically: DFS preorder from each fragment root in order.
    """
    if not fragments:
        raise EmptyGraphError("no signal fragments to merge")
    sig_ids: dict[str, int] = {}
    nodes: list[GraphNode] = []
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    roots: list[int] = []
    for frag in fragments:
        remap: dict[int, int] = {}
        for node in frag.nodes:
            if node.label in ("signal", "input", "output") and node.name is not None:
                if node.name in sig_ids:
                    remap[node.id] = sig_ids[node.name]
                    continue
                sig_ids[node.name] = len(nodes)
            remap[node.id] = len(nodes)
            nodes.append(GraphNode(len(nodes), node.label, node.name))
        for src, dst in frag.edges:
            e = (remap[src], remap[dst])
            if e not in edge_set:
                edge_set.add(e)
                edges.append(e)
        roots.append(remap[0])
    seen_roots: set[int] = set()
    root_order = [r for r in roots if not (r in seen_roots or seen_roots.add(r))]
    merged = HWGraph(kind=DFG, nodes=nodes, edges=edges, design_name=design_name)
    return canonical_renumber(merged, root_order)


def reference_dfg(tree: TreeNode, top: str | None = None, design_name: str = "") -> HWGraph:
    """Whole-design DFG: one fragment per driven signal, merged."""
    with deep_stack():
        elab = elaborate(tree, top)
        driven = elab.driven_order()
        if not driven:
            raise EmptyGraphError(f"design {design_name or top} has no driven signals")
        return merge_dfgs([expr_fragment(elab, s) for s in driven], design_name=design_name)
