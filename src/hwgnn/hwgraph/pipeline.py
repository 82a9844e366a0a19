"""End-to-end extraction: source files in, canonical graph out."""
from __future__ import annotations

from .astgen import ast_graph
from .dfg import dfg_graph
from .graph import AST, DFG, HWGraph
from .parser import parse_verilog
from .source import SourceUnit, find_top_module, flatten


def hw2graph(
    design: SourceUnit,
    kind: str,
    top: str | None = None,
    design_name: str = "",
) -> HWGraph:
    """flatten -> find_top_module -> parse_verilog -> graph construction.

    ``top`` overrides occurrence-count top-module detection.  Node ids come
    out canonical (DFS preorder); identical input bytes give identical
    graphs.
    """
    if kind not in (AST, DFG):
        raise ValueError(f"kind must be 'AST' or 'DFG', got {kind!r}")
    flat = flatten(design, name=design_name)
    top = find_top_module(flat) if top is None else top
    tree = parse_verilog(flat)
    if kind == AST:
        return ast_graph(tree, design_name=design_name or top)
    return dfg_graph(tree, top=top, design_name=design_name or top)
