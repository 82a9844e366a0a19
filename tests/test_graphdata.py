"""Dataset handling: normalization, vocabularies, encoding, splits, pairs,
and the disk cache."""
import hashlib
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_edges, ast_of, dfg_of
from hwgnn import graphdata, synth
from hwgnn.errors import (
    CacheCorruptError,
    CorruptFileError,
    DegenerateSplitError,
    EmptyCorpusError,
    ShapeMismatchError,
    UndecodableFileError,
    UnknownCircuitError,
    UnknownLabelError,
)
from hwgnn.graphdata import (
    GraphPair,
    GraphTensors,
    NodeVocab,
    build_vocab,
    cache_get,
    cache_key,
    cache_put,
    encode,
    leave_one_circuit_out,
    load_vocab,
    make_pairs,
    normalize,
    save_vocab,
    split,
)
from hwgnn.hwgraph import (
    AST,
    DFG,
    GraphNode,
    HWGraph,
    SourceUnit,
    load_design_dir,
)
from hwgnn.settings import TOP

PORTED_AND = """
module m(input a, input b, output c);
  assign c = a & b;
endmodule
"""


def tiny_dfg():
    return dfg_of(PORTED_AND)


class TestNormalize:
    def test_names_dropped_structure_kept(self):
        g = tiny_dfg()
        n = normalize(g)
        assert all(node.name is None for node in n.nodes)
        assert [node.label for node in n.nodes] == [node.label for node in g.nodes]
        assert n.edges == g.edges
        assert n.kind == g.kind

    def test_input_does_not_alias(self):
        g = tiny_dfg()
        normalize(g)
        assert g.nodes[0].name == "c"

    def test_distinct_literals_share_const_label(self):
        g = dfg_of(
            "module m(output [8:0] y);\n  assign y = {1'b0, 8'hFF};\nendmodule"
        )
        n = normalize(g)
        consts = [node for node in n.nodes if node.label == "const"]
        assert len(consts) == 2
        assert all(node.name is None for node in consts)

    def test_ast_labels_pass_through(self):
        g = ast_of(PORTED_AND)
        n = normalize(g)
        assert [x.label for x in n.nodes] == [x.label for x in g.nodes]

    def test_foreign_label_rejected(self):
        g = HWGraph(kind="DFG", nodes=[GraphNode(0, "Gizmo", None)], edges=[])
        with pytest.raises(UnknownLabelError, match="Gizmo"):
            normalize(g)


class TestVocab:
    def test_sorted_union(self):
        vocab = build_vocab([normalize(tiny_dfg())])
        assert vocab.labels == sorted(vocab.labels)
        assert set(vocab.labels) == {"And", "input", "output"}
        assert len(vocab) == 3

    def test_union_without_duplicates(self):
        a = normalize(tiny_dfg())
        b = normalize(
            dfg_of("module m(input a, output y);\n  assign y = a | 1'b1;\nendmodule")
        )
        vocab = build_vocab([a, b])
        assert vocab.labels == ["And", "Or", "const", "input", "output"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([])

    def test_index_positions(self):
        vocab = NodeVocab(["And", "const", "signal"])
        assert [vocab.index[lab] for lab in vocab.labels] == [0, 1, 2]

    def test_unsorted_or_duplicated_labels_rejected(self):
        with pytest.raises(ValueError):
            NodeVocab(["signal", "And"])
        with pytest.raises(ValueError):
            NodeVocab(["And", "And"])

    def test_fingerprint_tracks_content(self):
        a = NodeVocab(["And", "const"])
        b = NodeVocab(["And", "const"])
        c = NodeVocab(["And", "signal"])
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab([normalize(tiny_dfg())])
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        assert path.read_text(encoding="utf-8") == "And\ninput\noutput\n"
        assert load_vocab(path).labels == vocab.labels

    @pytest.mark.parametrize("text, error", [
        (b"input\nAnd\n", CorruptFileError),
        (b"And\nAnd\n", CorruptFileError),
        (b"\xff\xfeAnd\n", UndecodableFileError),
    ])
    def test_damaged_file_is_a_typed_error_naming_it(self, tmp_path, text, error):
        path = tmp_path / "vocab.txt"
        path.write_bytes(text)
        with pytest.raises(error, match="vocab.txt"):
            load_vocab(path)


class TestEncode:
    def test_one_hot_row_for_label(self):
        vocab = NodeVocab(["And", "const", "signal"])
        g = HWGraph(kind="DFG", nodes=[GraphNode(0, "And", None)], edges=[])
        t = encode(g, vocab)
        assert t.X.tolist() == [[1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("A, want", [
        ([], np.empty((0, 2))),
        ([(0, 1), (1, 0)], [(0, 1), (1, 0)]),
        (np.array([[2, 0]], dtype=np.int32), [(2, 0)]),
        (np.array([[0, 1], [1, 2]], dtype=">i8"), [(0, 1), (1, 2)]),
        (np.array([[0, 1], [2, 3]]).T[::-1].T, [(1, 0), (3, 2)]),
    ])
    def test_any_m_by_2_integers_become_contiguous_int64(self, A, want):
        assert_edges(GraphTensors(X=np.eye(4), A=A, graph_id="g").A, want)

    @pytest.mark.parametrize("A", [
        [(0, 1, 2)], [(0, 1), (2,)], [0, 1], [[0.0, 1.0]], [("a", "b")], np.zeros((2, 2, 2), int),
    ])
    def test_malformed_edges_raise_shape_mismatch(self, A):
        with pytest.raises(ShapeMismatchError, match="'g'"):
            GraphTensors(X=np.eye(4), A=A, graph_id="g")

    def test_four_node_example_shape(self):
        g = normalize(tiny_dfg())
        vocab = build_vocab([g])
        t = encode(g, vocab, label=1)
        assert t.X.shape == (4, 3)
        assert t.X.sum(axis=1).tolist() == [1.0] * 4
        assert_edges(t.A, g.edges)
        assert t.label == 1
        assert t.graph_id == g.design_name

    def test_argmax_recovers_labels(self):
        g = normalize(tiny_dfg())
        vocab = build_vocab([g])
        t = encode(g, vocab)
        recovered = [vocab.labels[int(i)] for i in t.X.argmax(axis=1)]
        assert recovered == [n.label for n in g.nodes]

    def test_unseen_label_rejected(self):
        vocab = NodeVocab(["const"])
        g = HWGraph(kind="DFG", nodes=[GraphNode(0, "And", None)], edges=[])
        with pytest.raises(UnknownLabelError, match="And"):
            encode(g, vocab)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_one_hot_property_on_random_graphs(self, seed):
        g = synth.random_hwgraph(np.random.default_rng(seed))
        vocab = build_vocab([g])
        t = encode(g, vocab)
        assert t.X.shape == (g.num_nodes, len(vocab))
        assert np.array_equal(t.X.sum(axis=1), np.ones(g.num_nodes))
        recovered = [vocab.labels[int(i)] for i in t.X.argmax(axis=1)]
        assert recovered == [n.label for n in g.nodes]


class TestSplit:
    def test_ten_ids_ratio_point_two(self):
        s = split(list(range(10)), 0.2, seed=3)
        assert len(s.test) == 2
        assert len(s.train) == 8

    def test_deterministic(self):
        ids = [f"d{i}" for i in range(17)]
        assert split(ids, 0.3, seed=5) == split(ids, 0.3, seed=5)

    def test_different_seed_different_shuffle(self):
        ids = [f"d{i}" for i in range(40)]
        assert split(ids, 0.5, seed=1).test != split(ids, 0.5, seed=2).test

    def test_published_pair_budget(self):
        # 20% of 85,725 pairs reserved for testing
        s = split(list(range(85725)), 0.2, seed=0)
        assert len(s.test) == 17145

    @pytest.mark.parametrize("ratio", [0.5, 0.25, 0.3, 0.7, 0, 1, -0.5, 1.5, True,
                                       math.nan, math.inf, "0.5", None])
    def test_accepts_exactly_the_ratios_settings_declares(self, ratio):
        # 4 items keep both sides non-empty for every ratio in (0, 1) tried here
        if TOP["ratio"].rule.ok(ratio):
            assert len(split([1, 2, 3, 4], ratio, seed=0).test) in (1, 2, 3)
        else:
            with pytest.raises(DegenerateSplitError, match="ratio"):
                split([1, 2, 3, 4], ratio, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(DegenerateSplitError):
            split([1, 2, 3], 0.0, seed=0)
        with pytest.raises(DegenerateSplitError):
            split([1, 2, 3], 1.0, seed=0)

    def test_empty_side_rejected(self):
        with pytest.raises(DegenerateSplitError):
            split([1, 2, 3], 0.01, seed=0)

    def test_too_few_items_rejected(self):
        with pytest.raises(DegenerateSplitError):
            split([1], 0.5, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=300),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_invariants(self, n, ratio, seed):
        ids = list(range(n))
        n_test = round(ratio * n)
        if n_test in (0, n):
            with pytest.raises(DegenerateSplitError):
                split(ids, ratio, seed)
            return
        s = split(ids, ratio, seed)
        assert set(s.train).isdisjoint(s.test)
        assert sorted(s.train + s.test) == ids
        assert abs(len(s.test) - ratio * n) <= 1


class TestLeaveOneCircuitOut:
    CIRCUITS = {
        "aes_t1": "AES", "aes_t2": "AES",
        "pic_t1": "PIC",
        "rs232_t1": "RS232", "rs232_t2": "RS232",
        "des_t1": "DES",
        "rc5_t1": "RC5",
    }

    def test_held_out_circuit_isolated(self):
        ids = sorted(self.CIRCUITS)
        s = leave_one_circuit_out(ids, self.CIRCUITS, "AES")
        assert sorted(s.test) == ["aes_t1", "aes_t2"]
        assert all(self.CIRCUITS[i] != "AES" for i in s.train)
        assert sorted(s.train + s.test) == ids

    def test_single_member_circuit(self):
        ids = sorted(self.CIRCUITS)
        s = leave_one_circuit_out(ids, self.CIRCUITS, "PIC")
        assert s.test == ["pic_t1"]

    def test_unknown_circuit_rejected(self):
        with pytest.raises(UnknownCircuitError, match="OPENMSP"):
            leave_one_circuit_out(sorted(self.CIRCUITS), self.CIRCUITS, "OPENMSP")


class TestPairs:
    def test_one_category_all_similar(self):
        pairs = make_pairs(["a", "b", "c"], {"a": "x", "b": "x", "c": "x"})
        assert len(pairs) == 3
        assert all(p.label == 1 for p in pairs)

    def test_two_categories(self):
        pairs = make_pairs(["a", "b", "c"], {"a": "x", "b": "x", "c": "y"})
        labels = sorted(p.label for p in pairs)
        assert labels == [-1, -1, 1]

    def test_pair_count_formula(self):
        ids = [f"g{i}" for i in range(12)]
        pairs = make_pairs(ids, {i: "same" for i in ids})
        assert len(pairs) == 12 * 11 // 2

    def test_each_unordered_pair_once(self):
        ids = ["a", "b", "c", "d"]
        pairs = make_pairs(ids, {i: i for i in ids})
        seen = {frozenset((p.first, p.second)) for p in pairs}
        assert len(seen) == len(pairs)

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            GraphPair("a", "a", 1)

    def test_label_domain_enforced(self):
        with pytest.raises(ValueError, match="label"):
            GraphPair("a", "b", 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_relabeling_preserves_label_multiset(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        ids = [f"g{i}" for i in range(n)]
        cats = {i: f"c{int(rng.integers(0, 3))}" for i in ids}
        renamed = {i: f"z{i}" for i in ids}
        pairs = make_pairs(ids, cats)
        pairs2 = make_pairs(
            [renamed[i] for i in ids], {renamed[i]: cats[i] for i in ids}
        )
        assert sorted(p.label for p in pairs) == sorted(p.label for p in pairs2)


class TestCache:
    @pytest.fixture(autouse=True)
    def design(self, tmp_path):
        self.root = tmp_path / "designs" / "d"
        self.root.mkdir(parents=True)
        (self.root / "d.v").write_text(PORTED_AND, encoding="utf-8")
        self.g = normalize(tiny_dfg())
        self.vocab = build_vocab([self.g])

    def key(self, root=None, kind=DFG, top=None, vocab=None):
        root = self.root if root is None else root
        return cache_key(root, load_design_dir(root), kind, top,
                         self.vocab if vocab is None else vocab)

    def test_round_trip_bit_identical(self, tmp_path):
        t = encode(self.g, self.vocab, label=1)
        key = self.key()
        cache_put(tmp_path, key, t)
        back = cache_get(tmp_path, key)
        assert back is not None
        assert back.X.tobytes() == t.X.tobytes()
        assert_edges(back.A, t.A)
        assert back.graph_id == t.graph_id
        assert back.label == t.label

    def test_miss_returns_none(self, tmp_path):
        assert cache_get(tmp_path, "0" * 64) is None

    def test_key_is_stable(self):
        assert self.key() == self.key()

    def test_key_tracks_vocab_fingerprint(self, tmp_path):
        other = NodeVocab(sorted(self.vocab.labels + ["const"]))
        k1 = self.key()
        k2 = self.key(vocab=other)
        assert k1 != k2
        cache_put(tmp_path, k1, encode(self.g, self.vocab))
        assert cache_get(tmp_path, k2) is None

    def test_key_tracks_source_text(self):
        before = self.key()
        path = self.root / "d.v"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("a & b", "a | b"), encoding="utf-8")  # one byte
        assert self.key() != before
        path.write_text(text + "\n", encoding="utf-8")
        assert self.key() != before
        path.write_text(text, encoding="utf-8")
        assert self.key() == before

    def test_key_tracks_file_paths_and_count(self):
        before = self.key()
        (self.root / "d.v").rename(self.root / "e.v")
        assert self.key() != before
        (self.root / "e.v").rename(self.root / "d.v")
        (self.root / "sub").mkdir()
        (self.root / "sub" / "x.v").write_text("// empty\n", encoding="utf-8")
        assert self.key() != before

    def test_key_tracks_design_name(self, tmp_path):
        twin = tmp_path / "designs" / "d_twin"
        shutil.copytree(self.root, twin)
        assert self.key(twin) != self.key()

    def test_key_ignores_where_the_design_lives(self, tmp_path):
        moved = tmp_path / "elsewhere" / "d"
        shutil.copytree(self.root, moved)
        assert self.key(moved) == self.key()

    def test_key_tracks_kind_and_top(self):
        keys = {self.key(), self.key(kind=AST), self.key(top="m")}
        assert len(keys) == 3

    def test_key_tracks_extractor_version(self, monkeypatch):
        before = self.key()
        monkeypatch.setattr(graphdata, "EXTRACTOR_VERSION", graphdata.EXTRACTOR_VERSION + 1)
        assert self.key() != before

    @pytest.mark.parametrize("one, two", [
        # equal when neither paths nor texts carry a length prefix
        ([("a.v", "xb.v"), ("c.v", "")], [("a.v", "x"), ("b.vc.v", "")]),
        # equal when only the paths carry one
        ([("a.v", "x" + "\x03" + "\x00" * 7 + "b.vy"), ("c.v", "z")],
         [("a.v", "x"), ("b.v", "y" + "\x03" + "\x00" * 7 + "c.vz")]),
    ], ids=["unframed", "paths-framed"])
    def test_file_boundaries_cannot_collide(self, one, two):
        r = self.root
        keys = {cache_key(r, SourceUnit([(r / p, t) for p, t in files]), DFG, None, self.vocab)
                for files in (one, two)}
        assert len(keys) == 2

    def test_filename_layout(self, tmp_path):
        key = self.key()
        path = cache_put(tmp_path, key, encode(self.g, self.vocab))
        assert path.parent == tmp_path
        assert path.name == f"{key}.gt"
        assert len(key) == 64

    def test_truncated_entry_raises(self, tmp_path):
        key = self.key()
        path = cache_put(tmp_path, key, encode(self.g, self.vocab))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CacheCorruptError):
            cache_get(tmp_path, key)

    def test_bit_rot_raises(self, tmp_path):
        key = self.key()
        path = cache_put(tmp_path, key, encode(self.g, self.vocab))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheCorruptError, match="checksum"):
            cache_get(tmp_path, key)

    def test_wrong_magic_raises(self, tmp_path):
        key = "a" * 64
        (tmp_path / f"{key}.gt").write_bytes(b"NOTME" + b"\x00" * 64)
        with pytest.raises(CacheCorruptError):
            cache_get(tmp_path, key)

    @pytest.mark.parametrize("header, extra_len", [
        (b"\xff\xfe", 0),  # not UTF-8
        (b'{"graph_id": "t", "label": null, "rows": 0, "cols": 0, "edges": 0}', 1000),
        (b"[1]", 0),
        (b'{"graph_id": "t", "label": null, "cols": 0, "edges": 0}', 0),  # no rows
        (b'{"graph_id": "t", "label": null, "rows": "1", "cols": 0, "edges": 0}', 0),
    ], ids=["not-utf8", "length-past-end", "not-an-object", "missing-rows", "string-rows"])
    def test_malformed_header_is_corrupt(self, tmp_path, header, extra_len):
        # a valid checksum, so only the header itself is at fault; eight
        # bytes of feature data follow it
        payload = (graphdata._CACHE_MAGIC + struct.pack("<Q", len(header) + extra_len)
                   + header + bytes(8))
        key = "b" * 64
        (tmp_path / f"{key}.gt").write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(CacheCorruptError):
            cache_get(tmp_path, key)

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = tmp_path / "cache"
        cache_put(cache, self.key(), encode(self.g, self.vocab))
        assert [p.suffix for p in cache.iterdir()] == [".gt"]
