"""Data-flow graph extraction.

The oracle tests rebuild expected node/edge sets straight from the
generator's expression tuples, without going through the parser, so the
two paths are independent.  The differential tests hold the one-pass
``dfg_graph`` to the fragment-and-merge construction in ``dfg_reference``
byte for byte.
"""
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dfg_of, labels_of, load_gen, named
from dfg_reference import dfg_for_signal, merge_dfgs, reference_dfg
from hwgnn import synth
from hwgnn.errors import (
    ElaborationDepthError,
    EmptyGraphError,
    UnknownModuleError,
    UnknownSignalError,
)
from hwgnn.hwgraph import (
    dfg_graph,
    find_top_module,
    flatten,
    graph_to_json,
    load_design_dir,
    parse_verilog,
)

ROOT = Path(__file__).resolve().parents[1]

AND_MODULE = """
module m;
  wire a, b, c;
  assign c = a & b;
endmodule
"""

PORTED_AND = """
module m(input a, input b, output c);
  assign c = a & b;
endmodule
"""

SHARED_DEP = """
module m(input a, input b, output c, output d);
  assign c = a & b;
  assign d = c | a;
endmodule
"""


def edge_names(g):
    """Edges as (label:name, label:name) pairs for readable assertions."""
    def tag(nid):
        n = g.nodes[nid]
        return f"{n.label}:{n.name}" if n.name else n.label
    return {(tag(s), tag(d)) for s, d in g.edges}


class TestFragment:
    def test_and_dependency_shape(self):
        g = dfg_for_signal(parse_verilog(AND_MODULE), "c")
        assert (g.num_nodes, g.num_edges) == (4, 3)
        assert g.nodes[0].name == "c"
        assert sorted(labels_of(g)) == ["And", "signal", "signal", "signal"]
        assert edge_names(g) == {
            ("signal:c", "And"),
            ("And", "signal:a"),
            ("And", "signal:b"),
        }

    def test_port_kinds_reflected_in_labels(self):
        g = dfg_for_signal(parse_verilog(PORTED_AND), "c")
        assert sorted(labels_of(g)) == ["And", "input", "input", "output"]

    def test_constant_driver(self):
        g = dfg_of("module m(output c);\n  assign c = 1'b0;\nendmodule")
        assert (g.num_nodes, g.num_edges) == (2, 1)
        assert g.nodes[1].label == "const"
        assert g.nodes[1].name == "1'b0"

    def test_self_reference_keeps_back_edge(self):
        g = dfg_of("module m;\n  wire c;\n  assign c = c;\nendmodule")
        assert g.num_nodes == 1
        assert g.edges == [(0, 0)]

    def test_mutual_cycle(self):
        g = dfg_of("module m;\n  wire a, b;\n  assign a = b;\n  assign b = a;\nendmodule")
        assert g.num_nodes == 2
        assert set(g.edges) == {(0, 1), (1, 0)}

    def test_repeated_operand_edge_deduplicated(self):
        g = dfg_of("module m(input a, output y);\n  assign y = a & a;\nendmodule")
        assert (g.num_nodes, g.num_edges) == (3, 2)

    def test_fragment_root_is_node_zero(self):
        tree = parse_verilog(SHARED_DEP)
        for sig in ("c", "d", "a"):
            frag = dfg_for_signal(tree, sig)
            assert frag.nodes[0].name == sig

    def test_undriven_signal_is_a_single_node(self):
        frag = dfg_for_signal(parse_verilog(PORTED_AND), "a")
        assert (frag.num_nodes, frag.num_edges) == (1, 0)

    def test_unknown_signal_rejected(self):
        with pytest.raises(UnknownSignalError, match="nope"):
            dfg_for_signal(parse_verilog(PORTED_AND), "nope")


class TestMerge:
    def test_single_fragment_identity_up_to_renumbering(self):
        frag = dfg_for_signal(parse_verilog(PORTED_AND), "c")
        merged = merge_dfgs([frag])
        assert sorted((n.label, n.name) for n in merged.nodes) == sorted(
            (n.label, n.name) for n in frag.nodes
        )
        assert len(merged.edges) == len(frag.edges)

    def test_shared_dependency_duplicates_ops_not_signals(self):
        g = dfg_of(SHARED_DEP)
        # signals unify by name; the And feeding c is expanded again inside
        # d's fragment, so the op appears twice
        assert g.num_nodes == 7
        assert g.num_edges == 9
        counts = Counter(labels_of(g))
        assert counts["And"] == 2
        assert counts["Or"] == 1
        for name in ("a", "b", "c", "d"):
            assert len([n for n in g.nodes if n.name == name]) == 1

    def test_disjoint_fragments_sum_their_nodes(self):
        g = dfg_of(
            "module m(input a, input b, output c, output d);\n"
            "  assign c = a;\n  assign d = b;\nendmodule"
        )
        assert (g.num_nodes, g.num_edges) == (4, 2)

    def test_constants_stay_per_occurrence(self):
        g = dfg_of(
            "module m(input a, output c, output d);\n"
            "  assign c = a & 1'b1;\n  assign d = a | 1'b1;\nendmodule"
        )
        assert Counter(labels_of(g))["const"] == 2
        assert len(named(g, "input", "a")) == 1

    def test_merge_nothing_rejected(self):
        with pytest.raises(EmptyGraphError):
            merge_dfgs([])


class TestProcedural:
    def test_clock_is_not_a_data_dependency(self):
        g = dfg_of(
            "module m(input clk, input d, output reg q);\n"
            "  always @(posedge clk) q <= d;\nendmodule"
        )
        assert {n.name for n in g.nodes} == {"q", "d"}
        assert edge_names(g) == {("output:q", "input:d")}

    def test_if_without_else_holds_previous_value(self):
        g = dfg_of(
            "module m(input clk, input en, input d, output reg q);\n"
            "  always @(posedge clk) if (en) q <= d;\nendmodule"
        )
        # Branch(en, d, q): the hold path loops back to the target
        assert Counter(labels_of(g))["Branch"] == 1
        q = named(g, "output", "q")[0]
        branch = named(g, "Branch")[0]
        assert (q, branch) in g.edges
        assert (branch, q) in g.edges
        assert (g.num_nodes, g.num_edges) == (4, 4)

    def test_if_else_lowers_to_branch(self):
        g = dfg_of(
            "module m(input s, input a, input b, output reg y);\n"
            "  always @(*) begin\n"
            "    if (s) y = a; else y = b;\n"
            "  end\nendmodule"
        )
        assert (g.num_nodes, g.num_edges) == (5, 4)
        branch = named(g, "Branch")[0]
        assert {d for s_, d in g.edges if s_ == branch} == set(
            named(g, "input")
        )

    def test_case_desugars_to_branch_chain(self):
        g = dfg_of(
            "module m(input [1:0] sel, input a, input b, input c, output reg y);\n"
            "  always @(*) begin\n"
            "    case (sel)\n"
            "      2'b00: y = a;\n"
            "      2'b01, 2'b10: y = b;\n"
            "      default: y = c;\n"
            "    endcase\n"
            "  end\nendmodule"
        )
        counts = Counter(labels_of(g))
        assert counts["Branch"] == 2
        assert counts["Eq"] == 3
        assert counts["Lor"] == 1
        assert counts["const"] == 3
        assert len(named(g, "input", "sel")) == 1
        assert (g.num_nodes, g.num_edges) == (14, 15)

    def test_casez_lowering_matches_case(self):
        text = (
            "module m(input [1:0] sel, input a, input b, output reg y);\n"
            "  always @(*) begin\n"
            "    %s (sel)\n"
            "      2'b00: y = a;\n"
            "      default: y = b;\n"
            "    endcase\n"
            "  end\nendmodule"
        )
        plain = dfg_of(text % "case")
        z = dfg_of(text % "casez")
        assert labels_of(plain) == labels_of(z)
        assert plain.edges == z.edges

    def test_blocking_chain_keeps_intermediate_signal(self):
        g = dfg_of(
            "module m(input a, input b, input c, output reg y);\n"
            "  reg t;\n"
            "  always @(*) begin\n"
            "    t = a & b;\n"
            "    y = t | c;\n"
            "  end\nendmodule"
        )
        assert ("Or", "signal:t") in edge_names(g)
        assert ("signal:t", "And") in edge_names(g)

    def test_initial_block_contributes_nothing(self):
        with_init = dfg_of(
            "module m(input a, output y);\n"
            "  reg s;\n"
            "  initial s = 1'b0;\n"
            "  assign y = a;\nendmodule"
        )
        without = dfg_of("module m(input a, output y);\n  assign y = a;\nendmodule")
        assert labels_of(with_init) == labels_of(without)
        assert with_init.edges == without.edges


HIERARCHY = """
module top(input a, output y);
  wire w;
  sub u1(.i(a), .o(w));
  assign y = ~w;
endmodule
module sub(input i, output o);
  assign o = ~i;
endmodule
"""


class TestHierarchyAndGates:
    def test_instance_signals_get_prefixed_names(self):
        g = dfg_of(HIERARCHY, top="top")
        names = {n.name for n in g.nodes if n.name}
        assert {"u1.i", "u1.o", "a", "w", "y"} <= names
        assert len(named(g, "input", "a")) == 1

    def test_output_port_binding_direction(self):
        g = dfg_of(HIERARCHY, top="top")
        # w is driven by the instance output, which is driven inside sub
        assert ("signal:w", "signal:u1.o") in edge_names(g)
        assert ("signal:u1.i", "input:a") in edge_names(g)

    def test_positional_binding_matches_named(self):
        positional = HIERARCHY.replace("sub u1(.i(a), .o(w));", "sub u1(a, w);")
        a = dfg_of(HIERARCHY, top="top")
        b = dfg_of(positional, top="top")
        assert labels_of(a) == labels_of(b)
        assert a.edges == b.edges

    def test_parameter_reference_becomes_constant(self):
        g = dfg_of(
            "module m #(parameter W = 4) (input a, output y);\n"
            "  assign y = a + W;\nendmodule"
        )
        assert named(g, "const", "W")
        assert not [n for n in g.nodes if n.label == "signal" and n.name == "W"]

    def test_gate_primitives_lower_to_ops(self):
        g = dfg_of(
            "module g(input a, input b, output y);\n"
            "  wire w;\n"
            "  nand n1(w, a, b);\n"
            "  not(y, w);\nendmodule"
        )
        counts = Counter(labels_of(g))
        assert counts["Nand"] == 2  # expanded once per referencing fragment
        assert counts["Not"] == 1
        assert g.num_nodes == 7

    def test_selects_keep_their_labels(self):
        g = dfg_of(
            "module m(input [3:0] a, input [1:0] b, output [2:0] y);\n"
            "  assign y = {a[3:1], b[0]};\nendmodule"
        )
        counts = Counter(labels_of(g))
        assert counts["Concat"] == 1
        assert counts["Partselect"] == 1
        assert counts["Pointer"] == 1

    def test_multiple_drivers_wrap_in_concat(self):
        g = dfg_of(
            "module m(input a, input b, output y);\n"
            "  assign y = a;\n  assign y = b;\nendmodule"
        )
        y = named(g, "output", "y")[0]
        succ = [d for s, d in g.edges if s == y]
        assert len(succ) == 1
        assert g.nodes[succ[0]].label == "Concat"

    def test_undefined_module_rejected(self):
        tree = parse_verilog("module top;\n  ghost u1();\nendmodule")
        with pytest.raises(UnknownModuleError, match="ghost"):
            dfg_graph(tree, top="top")

    def test_multi_module_design_needs_explicit_top(self):
        with pytest.raises(UnknownModuleError, match="top module"):
            dfg_of(HIERARCHY)

    def test_instantiation_depth_capped(self):
        text = "module a;\n  wire x;\n  a u();\n  assign x = 1'b0;\nendmodule"
        with pytest.raises(ElaborationDepthError, match="32"):
            dfg_of(text, top="a")


class TestWholeDesign:
    def test_design_without_drivers_rejected(self):
        with pytest.raises(EmptyGraphError):
            dfg_of("module m(input a);\n  wire w;\nendmodule")

    def test_extraction_is_deterministic(self):
        a = dfg_of(SHARED_DEP)
        b = dfg_of(SHARED_DEP)
        assert a.nodes == b.nodes
        assert a.edges == b.edges

    def test_output_is_validated_and_canonical(self):
        g = dfg_of(SHARED_DEP)
        g.validate()
        assert [n.id for n in g.nodes] == list(range(g.num_nodes))
        assert g.edges == sorted(set(g.edges))

    def test_rename_bijection_preserves_structure(self):
        import re

        renames = {"a": "north", "b": "south", "c": "east", "d": "west"}
        renamed = re.sub(
            r"\b([abcd])\b", lambda m: renames[m.group(1)], SHARED_DEP
        )
        g0 = dfg_of(SHARED_DEP)
        g1 = dfg_of(renamed)
        assert labels_of(g0) == labels_of(g1)
        assert g0.edges == g1.edges
        for n0, n1 in zip(g0.nodes, g1.nodes):
            assert renames.get(n0.name, n0.name) == n1.name


# --- independent dependency-closure oracle ---


def oracle_nodes_edges(mod: synth.SynthModule):
    """Expected merged DFG, built by walking the generator's expression
    tuples directly.  Signal nodes unify by name; operation and constant
    nodes are fresh per occurrence per fragment."""
    labels: list[str] = []
    names: list[str | None] = []
    edges: set[tuple[int, int]] = set()
    sig_id: dict[str, int] = {}

    def new_node(label, name):
        labels.append(label)
        names.append(name)
        return len(labels) - 1

    def signal_node(name):
        if name not in sig_id:
            if name in mod.inputs:
                kind = "input"
            elif name in mod.outputs:
                kind = "output"
            else:
                kind = "signal"
            sig_id[name] = new_node(kind, name)
        return sig_id[name]

    def expand(expr, dep, visited):
        kind = expr[0]
        if kind == "sig":
            nid = signal_node(expr[1])
            edges.add((dep, nid))
            if expr[1] in mod.drivers and expr[1] not in visited:
                visited.add(expr[1])
                expand(mod.drivers[expr[1]], nid, visited)
        elif kind == "const":
            edges.add((dep, new_node("const", expr[1])))
        else:
            nid = new_node(kind, None)
            edges.add((dep, nid))
            for child in expr[1:]:
                expand(child, nid, visited)

    for name in mod.decl_order:
        if name in mod.drivers:
            root = signal_node(name)
            expand(mod.drivers[name], root, {name})
    return labels, names, sorted(edges)


def dag_signature(labels, names, edges):
    """Order-insensitive structural fingerprint of a DAG."""
    adj: list[list[int]] = [[] for _ in labels]
    for s, d in edges:
        adj[s].append(d)
    memo: dict[int, tuple] = {}

    def sig(v):
        if v not in memo:
            memo[v] = (labels[v], names[v] or "", tuple(sorted(sig(c) for c in adj[v])))
        return memo[v]

    return sorted(sig(v) for v in range(len(labels)))


class TestDependencyClosureOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_oracle_on_random_modules(self, seed):
        mod = synth.random_assign_module(np.random.default_rng(seed))
        g = dfg_of(mod.text)
        labels, names, edges = oracle_nodes_edges(mod)
        assert g.num_nodes == len(labels)
        assert g.num_edges == len(edges)
        got = dag_signature(
            labels_of(g), [n.name for n in g.nodes], g.edges
        )
        assert got == dag_signature(labels, names, edges)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_leaves_are_constants_or_inputs(self, seed):
        mod = synth.random_assign_module(np.random.default_rng(seed))
        g = dfg_of(mod.text)
        outdeg = [0] * g.num_nodes
        for s, _ in g.edges:
            outdeg[s] += 1
        for n in g.nodes:
            if outdeg[n.id] == 0:
                assert n.label in ("const", "input")


# --- one pass against the fragment-and-merge reference ---


def assert_matches_reference(tree, top=None, name="t"):
    want = graph_to_json(reference_dfg(tree, top=top, design_name=name))
    assert graph_to_json(dfg_graph(tree, top=top, design_name=name)) == want


def assert_corpus_matches_reference(designs_dir: Path) -> int:
    designs = sorted(p for p in designs_dir.iterdir() if p.is_dir())
    for d in designs:
        flat = flatten(load_design_dir(d), name=d.name)
        top = find_top_module(flat)
        flat.top_module = top
        assert_matches_reference(parse_verilog(flat), top=top, name=d.name)
    return len(designs)


class TestMatchesReference:
    @pytest.mark.parametrize("corpus, count", [("ht", 60), ("ip", 40)])
    def test_bundled_corpus(self, corpus, count):
        assert assert_corpus_matches_reference(ROOT / "corpus" / corpus) == count

    @pytest.mark.parametrize("corpus, count", [("extract", 24), ("screen", 12)])
    def test_benchmark_corpus_at_seed_1(self, corpus, count, tmp_path):
        # 250-10k-node chain, hier and gln designs
        load_gen().generate(corpus, 1, tmp_path)
        assert assert_corpus_matches_reference(tmp_path / "designs") == count

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=6, max_value=40))
    def test_random_modules(self, seed, max_signals):
        mod = synth.random_assign_module(np.random.default_rng(seed), max_signals=max_signals)
        assert_matches_reference(parse_verilog(mod.text))

    @pytest.mark.parametrize("text, top", [
        (SHARED_DEP, None),
        (HIERARCHY, "top"),
        ("module m;\n  wire a, b;\n  assign a = b ^ a;\n  assign b = a & b;\nendmodule", None),
    ])
    def test_shared_hierarchical_and_cyclic_designs(self, text, top):
        assert_matches_reference(parse_verilog(text), top=top)
