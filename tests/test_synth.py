"""Corpus and random-graph generators: determinism, layout, and the
structural guarantees the rest of the suite leans on."""
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_edges, dfg_of, named
from hwgnn import synth
from hwgnn.hwgraph import parse_verilog


def expr_leaves(expr):
    if expr[0] in ("sig", "const"):
        yield expr
    else:
        for child in expr[1:]:
            yield from expr_leaves(child)


def structure_fingerprint(g):
    """Isomorphism-invariant summary: labeled degree and edge profiles.

    Cheap necessary condition, not a full isomorphism test; good enough to
    show renaming and reordering left the data flow alone."""
    label_of = {n.id: n.label for n in g.nodes}
    indeg, outdeg = Counter(), Counter()
    for s, d in g.edges:
        outdeg[s] += 1
        indeg[d] += 1
    nodes = tuple(sorted((n.label, indeg[n.id], outdeg[n.id]) for n in g.nodes))
    edges = tuple(sorted((label_of[s], label_of[d]) for s, d in g.edges))
    return nodes, edges


class TestRandomAssignModule:
    def test_same_seed_same_module(self):
        a = synth.random_assign_module(np.random.default_rng(5))
        b = synth.random_assign_module(np.random.default_rng(5))
        assert a.text == b.text
        assert a.drivers == b.drivers
        assert a.decl_order == b.decl_order

    def test_smoke_parse(self):
        mod = synth.random_assign_module(np.random.default_rng(0))
        parse_verilog(mod.text)

    @pytest.mark.parametrize("max_signals", range(6))
    def test_budget_under_six_is_rejected(self, max_signals):
        with pytest.raises(ValueError, match="^max_signals must be at least 6$"):
            synth.random_assign_module(np.random.default_rng(0), max_signals=max_signals)

    def test_smallest_budget_fits(self):
        for seed in range(100):
            mod = synth.random_assign_module(np.random.default_rng(seed), max_signals=6)
            assert len(mod.decl_order) <= 6

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_description_invariants(self, seed):
        mod = synth.random_assign_module(np.random.default_rng(seed))
        assert mod.decl_order == mod.inputs + mod.outputs + mod.wires
        assert len(mod.decl_order) == len(set(mod.decl_order))
        assert len(mod.decl_order) <= 15
        assert set(mod.drivers) == set(mod.wires) | set(mod.outputs)
        for sig, expr in mod.drivers.items():
            for leaf in expr_leaves(expr):
                if leaf[0] == "const":
                    assert leaf[1] in ("1'b0", "1'b1")
                else:
                    name = leaf[1]
                    assert name not in mod.outputs
                    if name in mod.wires:
                        # wires only feed signals declared after them
                        assert sig in mod.outputs or (
                            mod.wires.index(name) < mod.wires.index(sig)
                        )
                    else:
                        assert name in mod.inputs

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_one_assign_per_driven_signal(self, seed):
        mod = synth.random_assign_module(np.random.default_rng(seed))
        for sig in list(mod.wires) + list(mod.outputs):
            assigns = [
                line for line in mod.text.splitlines()
                if line.strip().startswith(f"assign {sig} =")
            ]
            assert len(assigns) == 1


class TestTrojanCorpus:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.ht_corpus(a, n_clean=3, n_trojan=3, seed=9)
        synth.ht_corpus(b, n_clean=3, n_trojan=3, seed=9)
        for pa in sorted(a.rglob("*")):
            pb = b / pa.relative_to(a)
            if pa.is_file():
                assert pa.read_bytes() == pb.read_bytes()

    def test_layout_and_manifest(self, ht_corpus_dir):
        manifest = json.loads((ht_corpus_dir / "labels.json").read_text())
        assert len(manifest) == 10
        dirs = sorted(p.name for p in ht_corpus_dir.iterdir() if p.is_dir())
        assert dirs == sorted(manifest)
        for name, entry in manifest.items():
            assert set(entry) == {"label", "circuit"}
            assert entry["label"] in ("Trojan", "Non_Trojan")
            assert (ht_corpus_dir / name / f"{name}.v").is_file()
        labels = Counter(entry["label"] for entry in manifest.values())
        assert labels == {"Trojan": 5, "Non_Trojan": 5}
        indices = sorted(name.rsplit("_", 1)[1] for name in manifest)
        assert indices == [f"{i:02d}" for i in range(10)]

    def test_circuit_families_give_a_leave_out_axis(self, ht_corpus_dir):
        manifest = json.loads((ht_corpus_dir / "labels.json").read_text())
        families = {entry["circuit"] for entry in manifest.values()}
        assert families <= {"alu", "uart", "fifo", "crc", "pwm", "lfsr"}
        assert len(families) >= 2
        # both classes must appear in a family for leave-one-out to be fair
        by_family = {}
        for entry in manifest.values():
            by_family.setdefault(entry["circuit"], set()).add(entry["label"])
        assert any(len(v) == 2 for v in by_family.values())

    def test_trigger_pattern_separates_the_classes(self, ht_corpus_dir):
        manifest = json.loads((ht_corpus_dir / "labels.json").read_text())
        for name, entry in manifest.items():
            text = (ht_corpus_dir / name / f"{name}.v").read_text()
            if entry["label"] == "Trojan":
                assert "==" in text
                assert "?" in text
            else:
                assert "==" not in text

    def test_every_design_parses_to_a_dataflow_graph(self, ht_corpus_dir):
        manifest = json.loads((ht_corpus_dir / "labels.json").read_text())
        for name in manifest:
            text = (ht_corpus_dir / name / f"{name}.v").read_text()
            g = dfg_of(text, name=name)
            assert named(g, "output", "dout")
            assert named(g, "input", "din")

    def test_returned_manifest_matches_file(self, tmp_path):
        returned = synth.ht_corpus(tmp_path, n_clean=2, n_trojan=2, seed=3)
        on_disk = json.loads((tmp_path / "labels.json").read_text())
        assert returned == on_disk


class TestPiracyCorpus:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.ip_corpus(a, n_variants=2, seed=4)
        synth.ip_corpus(b, n_variants=2, seed=4)
        for pa in sorted(a.rglob("*")):
            if pa.is_file():
                assert pa.read_bytes() == (b / pa.relative_to(a)).read_bytes()

    def test_layout_and_categories(self, ip_corpus_dir):
        manifest = json.loads((ip_corpus_dir / "labels.json").read_text())
        assert len(manifest) == 16
        categories = Counter(entry["category"] for entry in manifest.values())
        assert len(categories) == 8
        assert all(count == 2 for count in categories.values())
        for name, entry in manifest.items():
            base = entry["category"]
            assert name.startswith(f"ip_{base}_v")
            assert (ip_corpus_dir / name / f"{name}.v").is_file()

    def test_variants_keep_the_data_flow(self, ip_corpus_dir):
        manifest = json.loads((ip_corpus_dir / "labels.json").read_text())
        by_base = {}
        for name, entry in manifest.items():
            text = (ip_corpus_dir / name / f"{name}.v").read_text()
            by_base.setdefault(entry["category"], []).append(dfg_of(text, name=name))
        for base, graphs in by_base.items():
            prints = {structure_fingerprint(g) for g in graphs}
            assert len(prints) == 1, f"variants of {base} drifted structurally"

    def test_variants_rename_internal_signals(self, ip_corpus_dir):
        v0 = (ip_corpus_dir / "ip_adder_v0" / "ip_adder_v0.v").read_text()
        v1 = (ip_corpus_dir / "ip_adder_v1" / "ip_adder_v1.v").read_text()
        assert "t0" in v0 and "s1_0" not in v0
        assert "s1_0" in v1 and " t0" not in v1
        # ports survive renaming so the interface stays recognizable
        for port in ("cin", "sum", "cout"):
            assert port in v0 and port in v1

    def test_gate_level_bases_lower_to_gate_labels(self, ip_corpus_dir):
        text = (ip_corpus_dir / "ip_aoi_gln_v0" / "ip_aoi_gln_v0.v").read_text()
        g = dfg_of(text, name="aoi")
        labels = {n.label for n in g.nodes}
        assert {"And", "Or", "Not"} <= labels
        text = (ip_corpus_dir / "ip_mixer_gln_v0" / "ip_mixer_gln_v0.v").read_text()
        g = dfg_of(text, name="mixer")
        assert {"Xor", "Nand", "Xnor", "Nor"} <= {n.label for n in g.nodes}


class TestRandomGraphTensors:
    def test_one_hot_rows_without_jitter(self):
        t = synth.random_graph_tensors(np.random.default_rng(1), 12, 5)
        assert t.X.shape == (12, 5)
        assert np.array_equal(np.sort(t.X, axis=1)[:, :-1], np.zeros((12, 4)))
        assert np.array_equal(t.X.sum(axis=1), np.ones(12))

    def test_edges_are_sorted_unique_and_loop_free(self):
        t = synth.random_graph_tensors(np.random.default_rng(2), 10, 3)
        edges = [tuple(e) for e in t.A.tolist()]
        assert_edges(t.A, sorted(set(edges)))
        assert all(s != d for s, d in edges)
        assert all(0 <= s < 10 and 0 <= d < 10 for s, d in edges)
        assert len(edges) == 15  # 3.0 * 10 / 2

    def test_two_nodes_cannot_deadlock_the_sampler(self):
        # budget used to exceed the 2 possible arcs and spin forever
        t = synth.random_graph_tensors(np.random.default_rng(3), 2, 3, avg_degree=3.0)
        assert_edges(t.A, [(0, 1), (1, 0)])

    def test_jitter_keeps_the_argmax(self):
        t = synth.random_graph_tensors(np.random.default_rng(4), 20, 4, jitter=0.3)
        assert t.X.min() >= 0.0
        assert t.X.max() < 1.3
        assert np.array_equal((t.X >= 1.0).sum(axis=1), np.ones(20))

    def test_deterministic_and_labeled(self):
        a = synth.random_graph_tensors(np.random.default_rng(6), 8, 3, graph_id="g8")
        b = synth.random_graph_tensors(np.random.default_rng(6), 8, 3, graph_id="g8")
        assert np.array_equal(a.X, b.X)
        assert_edges(a.A, b.A)
        assert a.graph_id == "g8"


class TestRandomHwgraph:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_structurally_valid(self, seed):
        g = synth.random_hwgraph(np.random.default_rng(seed))
        g.validate()
        assert [n.id for n in g.nodes] == list(range(g.num_nodes))
        assert g.edges == sorted(set(g.edges))
        for n in g.nodes:
            if n.label in ("signal", "input", "output"):
                assert n.name == f"n{n.id}"
            else:
                assert n.name is None

    def test_requested_size_honored(self):
        g = synth.random_hwgraph(np.random.default_rng(7), n_nodes=6)
        assert g.num_nodes == 6

    def test_smallest_size_terminates(self):
        # edge budget is clamped to the n*n possible arcs
        for seed in range(30):
            g = synth.random_hwgraph(np.random.default_rng(seed), n_nodes=2)
            assert 1 <= g.num_edges <= 4
