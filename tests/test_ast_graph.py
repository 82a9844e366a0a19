"""Syntax-tree graph emission and the structural guarantees it carries."""
import numpy as np
import pytest

from hwgnn import synth
from hwgnn.hwgraph import GraphNode, HWGraph
from hwgnn.hwgraph.parser import AST_LABELS

from conftest import ast_of
from dfg_reference import canonical_renumber

ONE_LINER = "module top(input a, input b, output c);\n  assign c = a & b;\nendmodule\n"


def roots(g):
    """Nodes with in-degree zero, in id order."""
    deg = g.in_degrees()
    return [n.id for n in g.nodes if deg[n.id] == 0]


class TestAstShape:
    def test_tree_invariant(self):
        g = ast_of(ONE_LINER)
        assert g.kind == "AST"
        assert g.num_edges == g.num_nodes - 1
        assert len(roots(g)) == 1

    def test_root_is_module_def(self):
        g = ast_of(ONE_LINER)
        root = g.nodes[roots(g)[0]]
        assert root.id == 0
        assert root.label == "ModuleDef"
        assert root.name == "top"

    def test_ids_are_dfs_preorder(self):
        g = ast_of(ONE_LINER)
        assert [n.id for n in g.nodes] == list(range(g.num_nodes))
        # every edge goes from a smaller id to a larger one in preorder
        assert all(src < dst for src, dst in g.edges)

    def test_labels_in_vocabulary(self):
        g = ast_of(ONE_LINER)
        assert set(n.label for n in g.nodes) <= AST_LABELS

    def test_multi_module_single_root(self):
        g = ast_of("module a();\nendmodule\nmodule b();\nendmodule")
        root = g.nodes[roots(g)[0]]
        assert root.label == "Source"
        assert g.num_edges == g.num_nodes - 1

    def test_identifier_names_preserved(self):
        g = ast_of(ONE_LINER)
        idents = sorted(n.name for n in g.nodes if n.label == "Identifier")
        assert idents == ["a", "b", "c"]

    def test_deeply_nested_expression(self):
        depth = 400
        expr = "(" * depth + "a" + ")" * depth
        g = ast_of(f"module m(input a, output y);\n  assign y = {expr};\nendmodule")
        assert g.num_edges == g.num_nodes - 1

    def test_absurd_nesting_is_a_clean_error(self):
        from hwgnn.errors import VerilogSyntaxError

        depth = 5000
        expr = "(" * depth + "a" + ")" * depth
        with pytest.raises(VerilogSyntaxError, match="nesting"):
            ast_of(f"module m(input a, output y);\n  assign y = {expr};\nendmodule")


class TestAstProperty:
    def test_random_modules_keep_tree_shape(self):
        rng = np.random.default_rng(5)
        for i in range(25):
            mod = synth.random_assign_module(rng, name=f"r{i}")
            g = ast_of(mod.text)
            assert g.num_edges == g.num_nodes - 1
            assert len(roots(g)) == 1
            assert set(n.label for n in g.nodes) <= AST_LABELS


class TestValidate:
    def test_sparse_ids_rejected(self):
        g = HWGraph(kind="AST", nodes=[GraphNode(0, "Source"), GraphNode(2, "ModuleDef")],
                    edges=[(0, 2)])
        with pytest.raises(ValueError):
            g.validate()

    def test_two_roots_rejected(self):
        g = HWGraph(kind="AST",
                    nodes=[GraphNode(0, "Source"), GraphNode(1, "ModuleDef"),
                           GraphNode(2, "ModuleDef")],
                    edges=[(0, 1)])
        with pytest.raises(ValueError):
            g.validate()

    def test_self_loop_rejected_in_ast(self):
        g = HWGraph(kind="AST", nodes=[GraphNode(0, "Source")], edges=[(0, 0)])
        with pytest.raises(ValueError):
            g.validate()

    def test_edge_out_of_range(self):
        g = HWGraph(kind="DFG", nodes=[GraphNode(0, "signal", "x")], edges=[(0, 3)])
        with pytest.raises(ValueError):
            g.validate()


# the renumbering of the DFG reference construction (tests/dfg_reference.py)
class TestCanonicalRenumber:
    def test_preorder_from_root(self):
        nodes = [GraphNode(0, "signal", "a"), GraphNode(1, "signal", "b"),
                 GraphNode(2, "signal", "c")]
        # root is node 2; expect c=0 then its targets in edge order
        g = HWGraph(kind="DFG", nodes=nodes, edges=[(2, 0), (2, 1)])
        out = canonical_renumber(g, roots=[2])
        assert [(n.id, n.name) for n in out.nodes] == [(0, "c"), (1, "a"), (2, "b")]
        assert out.edges == [(0, 1), (0, 2)]

    def test_unreachable_node_rejected(self):
        nodes = [GraphNode(0, "signal", "a"), GraphNode(1, "signal", "b")]
        g = HWGraph(kind="DFG", nodes=nodes, edges=[])
        with pytest.raises(ValueError):
            canonical_renumber(g, roots=[0])

    def test_duplicate_edges_collapse(self):
        nodes = [GraphNode(0, "signal", "a"), GraphNode(1, "signal", "b")]
        g = HWGraph(kind="DFG", nodes=nodes, edges=[(0, 1), (0, 1)])
        out = canonical_renumber(g, roots=[0])
        assert out.edges == [(0, 1)]
