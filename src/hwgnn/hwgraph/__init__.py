"""Verilog front end: flattening, parsing, AST/DFG graph extraction."""
from .astgen import ast_graph
from .dfg import (
    DFG_LABELS,
    DFG_OP_LABELS,
    Elaborated,
    dfg_graph,
    elaborate,
)
from .graph import AST, DFG, GraphNode, HWGraph
from .jsonio import graph_from_json, graph_to_json, read_graph, write_graph
from .parser import AST_LABELS, TreeNode, parse_verilog
from .pipeline import hw2graph
from .source import (
    FlatDesign,
    SourceUnit,
    find_top_module,
    flatten,
    load_design_dir,
    strip_comments,
)

__all__ = [
    "AST",
    "DFG",
    "AST_LABELS",
    "DFG_LABELS",
    "DFG_OP_LABELS",
    "GraphNode",
    "HWGraph",
    "TreeNode",
    "SourceUnit",
    "FlatDesign",
    "Elaborated",
    "strip_comments",
    "flatten",
    "find_top_module",
    "load_design_dir",
    "parse_verilog",
    "ast_graph",
    "elaborate",
    "dfg_graph",
    "graph_to_json",
    "graph_from_json",
    "read_graph",
    "write_graph",
    "hw2graph",
]
