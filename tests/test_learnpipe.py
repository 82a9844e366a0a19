"""Losses, decision rules, metrics, trainers, checkpoints, and exports."""
import inspect
import itertools
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck
from hwgnn import graphdata
from hwgnn import learnpipe as lp
from hwgnn import nncore as nc
from hwgnn.errors import (
    BadLabelError,
    CorruptFileError,
    DivergenceError,
    HwgnnError,
    NonFiniteError,
    ShapeMismatchError,
    VersionMismatchError,
    VocabMismatchError,
)
from hwgnn.graph2vec import build_adjacency, build_model, embed, pool_graph
from hwgnn.graphdata import GraphPair, GraphTensors
from hwgnn.hwgraph import DFG, hw2graph, load_design_dir

ROOT = Path(__file__).resolve().parents[1]

# --- toy graphs ---
# Star and chain on the same node count with the same feature multiset
# (one type-0 node, the rest type-1), so only the wiring tells them apart.


def star_tensors(k: int, graph_id: str, label=None) -> GraphTensors:
    X = np.zeros((k + 1, 2))
    X[0, 0] = 1.0
    X[1:, 1] = 1.0
    A = [(0, i) for i in range(1, k + 1)]
    return GraphTensors(X=X, A=A, graph_id=graph_id, label=label)


def chain_tensors(k: int, graph_id: str, label=None) -> GraphTensors:
    X = np.zeros((k + 1, 2))
    X[0, 0] = 1.0
    X[1:, 1] = 1.0
    A = [(i, i + 1) for i in range(k)]
    return GraphTensors(X=X, A=A, graph_id=graph_id, label=label)


def permuted_copy(t: GraphTensors, graph_id: str, seed: int) -> GraphTensors:
    """Same graph under a node relabeling."""
    n = t.X.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    X = np.zeros_like(t.X)
    for v in range(n):
        X[perm[v]] = t.X[v]
    A = [(int(perm[s]), int(perm[d])) for s, d in t.A]
    return GraphTensors(X=X, A=A, graph_id=graph_id, label=t.label)


def tiny_cfg(**overrides) -> lp.TrainConfig:
    base = dict(
        epochs=50,
        batch_size=4,
        lr=1e-2,
        seed=0,
        mini_test_interval=5,
        conv_dims=[8],
        mlp_hidden=[4],
        activation="tanh",
    )
    base.update(overrides)
    return lp.TrainConfig(**base)


def classifier_corpus():
    train, val = [], []
    for i, k in enumerate([3, 4, 5, 6, 7, 3, 4, 5, 6, 7]):
        train.append(star_tensors(k, f"star{i}", "Trojan"))
        train.append(chain_tensors(k, f"chain{i}", "Non_Trojan"))
    for i, k in enumerate([4, 5, 6, 8]):
        val.append(star_tensors(k, f"vstar{i}", "Trojan"))
        val.append(chain_tensors(k, f"vchain{i}", "Non_Trojan"))
    return train, val


def pair_corpus():
    tensors = {}
    pos, neg = [], []
    for i, k in enumerate([3, 4, 5, 6, 7, 8]):
        s = star_tensors(k, f"s{i}")
        c = chain_tensors(k, f"c{i}")
        s2 = permuted_copy(s, f"s{i}x", seed=100 + i)
        c2 = GraphTensors(X=c.X.copy(), A=list(c.A), graph_id=f"c{i}x")
        for t in (s, c, s2, c2):
            tensors[t.graph_id] = t
        pos.append(GraphPair(s.graph_id, s2.graph_id, 1))
        pos.append(GraphPair(c.graph_id, c2.graph_id, 1))
        neg.append(GraphPair(s.graph_id, c.graph_id, -1))
    train_pairs = pos[:8] + neg[:4]
    val_pairs = pos[8:] + neg[4:]
    return train_pairs, val_pairs, tensors


def contradicted(pairs):
    """``pairs`` plus its first pair under the opposite label: accuracy
    cannot reach 1.0, so training never stops at the ceiling."""
    first = pairs[0]
    return pairs + [GraphPair(first.first, first.second, -first.label)]


def forced_classifier(logits, in_dim=2):
    """Classifier whose softmax input is pinned to `logits` for every graph."""
    model = build_model(
        {"in_dim": in_dim, "conv_dims": [4], "mlp_hidden": [4], "head": "classifier"},
        seed=0,
    )
    for p in model.params():
        p.data[...] = 0.0
    final_bias = {p.name: p for p in model.params()}["mlp.b1"]
    final_bias.data[...] = np.array([logits])
    return model


class TestTrainConfig:
    def test_defaults(self):
        cfg = lp.TrainConfig()
        assert cfg.epochs == 120
        assert cfg.batch_size == 8
        assert cfg.lr == 1e-2
        assert cfg.optimizer == "adam"
        assert cfg.pooling_ratio == 0.5
        assert cfg.margin == 0.5
        assert cfg.delta == 0.5
        assert cfg.mini_test_interval == 10
        assert cfg.readout == "sum"
        assert cfg.conv_dims == [64, 64]
        assert cfg.activation == "relu"

    def test_zero_epochs_allowed(self):
        assert lp.TrainConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -1e-3},
            {"margin": 1.0},
            {"margin": -0.01},
            {"delta": 1.0},
            {"delta": -1.0},
            {"mini_test_interval": 0},
            {"optimizer": "foo"},
            {"readout": "max"},
            {"pooling_ratio": 2},
            {"epochs": 1.5},
            {"conv_dims": 5},
            {"activation": "foo"},
            {"mlp_hidden": [4, 0]},
            {"seed": -1},
            {"lr": math.nan},
            {"lr": math.inf},
            {"lr": True},
            {"margin": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            lp.TrainConfig(**kwargs)

    def test_margin_zero_and_delta_bounds_are_open_closed_correctly(self):
        assert lp.TrainConfig(margin=0.0).margin == 0.0
        assert lp.TrainConfig(delta=0.99).delta == 0.99
        assert lp.TrainConfig(delta=-0.99).delta == -0.99

    def test_arch_mapping(self):
        cfg = lp.TrainConfig(conv_dims=[16, 8], mlp_hidden=[6], activation="tanh")
        arch = cfg.arch(in_dim=5, head="classifier")
        assert arch["in_dim"] == 5
        assert arch["head"] == "classifier"
        assert arch["conv_dims"] == [16, 8]
        assert arch["mlp_hidden"] == [6]
        assert arch["activation"] == "tanh"
        assert arch["pooling_ratio"] == 0.5
        assert arch["readout"] == "sum"
        assert arch["directed_messages"] is False

    def test_arch_copies_lists(self):
        cfg = lp.TrainConfig()
        arch = cfg.arch(3, "siamese")
        arch["conv_dims"].append(99)
        assert cfg.conv_dims == [64, 64]


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        loss = lp.cross_entropy(nc.constant([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert abs(loss.item()) < 1e-9

    def test_uniform_prediction_costs_ln2(self):
        loss = lp.cross_entropy(nc.constant([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_batch_is_sum_of_rows(self):
        one = lp.cross_entropy(nc.constant([[0.7, 0.3]]), np.array([[1.0, 0.0]]))
        two = lp.cross_entropy(
            nc.constant([[0.7, 0.3], [0.7, 0.3]]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
        )
        assert two.item() == pytest.approx(2.0 * one.item(), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            lp.cross_entropy(nc.constant([[0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]]))

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_for_probability_rows(self, firsts, seed):
        rows = np.array([[p, 1.0 - p] for p in firsts])
        rng = np.random.default_rng(seed)
        Y = np.zeros_like(rows)
        Y[np.arange(len(firsts)), rng.integers(0, 2, len(firsts))] = 1.0
        # the epsilon pad inside the log can push a perfect row a hair below 0
        assert lp.cross_entropy(nc.constant(rows), Y).item() >= -1e-9

    def test_gradient_through_softmax(self):
        W = nc.Parameter(np.array([[0.4, -0.2], [0.1, 0.3]]), "W")
        x = nc.constant([[1.0, 2.0]])

        def build():
            logits = nc.dense(x, W, nc.constant([[0.0, 0.0]]))
            return lp.cross_entropy(nc.softmax_rows(logits), np.array([[1.0, 0.0]]))

        fd_gradcheck(build, [W])


class TestContrastiveLoss:
    def test_perfect_positive_pair_costs_nothing(self):
        assert lp.contrastive_loss(nc.constant([[1.0]]), 1, 0.5).item() == 0.0

    def test_positive_pair_pays_one_minus_similarity(self):
        assert lp.contrastive_loss(nc.constant([[0.2]]), 1, 0.5).item() == pytest.approx(0.8)

    def test_negative_pair_inside_margin_is_free(self):
        assert lp.contrastive_loss(nc.constant([[0.3]]), -1, margin=0.5).item() == 0.0

    def test_negative_pair_above_margin_pays_excess(self):
        loss = lp.contrastive_loss(nc.constant([[0.9]]), -1, margin=0.5)
        assert loss.item() == pytest.approx(0.4)

    def test_zero_exactly_at_margin_and_continuous_there(self):
        at = lp.contrastive_loss(nc.constant([[0.5]]), -1, margin=0.5).item()
        below = lp.contrastive_loss(nc.constant([[0.5 - 1e-9]]), -1, margin=0.5).item()
        above = lp.contrastive_loss(nc.constant([[0.5 + 1e-9]]), -1, margin=0.5).item()
        assert at == 0.0
        assert below == 0.0
        assert above == pytest.approx(1e-9, abs=1e-12)

    @pytest.mark.parametrize("label", [0, 2, -2, "1", None, 1.0])
    def test_rejects_labels_outside_plus_minus_one(self, label):
        # 1.0 == 1 so the float sneaks through; everything else must not
        if label == 1.0 and not isinstance(label, str):
            lp.contrastive_loss(nc.constant([[0.5]]), label, 0.5)
            return
        with pytest.raises(BadLabelError):
            lp.contrastive_loss(nc.constant([[0.5]]), label, 0.5)

    @given(
        st.floats(-1.0, 1.0),
        st.sampled_from([1, -1]),
        st.floats(0.0, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_negative(self, y_hat, y, margin):
        loss = lp.contrastive_loss(nc.constant([[y_hat]]), y, margin).item()
        assert loss >= 0.0
        if y == 1:
            assert loss == pytest.approx(1.0 - y_hat, abs=1e-12)
        else:
            assert loss == pytest.approx(max(0.0, y_hat - margin), abs=1e-12)

    def test_gradient_both_polarities(self):
        # rows u, v and w
        H = nc.Parameter(np.array([[0.8, 0.4, -0.3], [0.2, -0.6, 0.5], [0.7, 0.5, -0.2]]), "H")
        u, v, w = np.array([0]), np.array([1]), np.array([2])

        def positive():
            return lp.contrastive_loss(nc.pair_cosine(H, u, v), 1, 0.5)

        fd_gradcheck(positive, [H])

        def negative():
            # similarity well above the margin keeps the hinge smooth
            return lp.contrastive_loss(nc.pair_cosine(H, u, w), -1, margin=0.1)

        assert nc.pair_cosine(H, u, w).item() > 0.2
        fd_gradcheck(negative, [H])


class TestDecisionRules:
    def test_trojan_when_first_probability_wins(self):
        model = forced_classifier([math.log(0.9), math.log(0.1)])
        t = star_tensors(3, "g")
        probs = lp.classify(model, embed(model, t)).data[0]
        assert np.allclose(probs, [0.9, 0.1])
        assert lp.predict_ht(model, t) == "Trojan"

    def test_non_trojan_when_second_probability_wins(self):
        model = forced_classifier([math.log(0.2), math.log(0.8)])
        assert lp.predict_ht(model, star_tensors(3, "g")) == "Non_Trojan"

    def test_exact_tie_is_non_trojan(self):
        model = forced_classifier([0.0, 0.0])
        t = star_tensors(4, "g")
        assert np.allclose(lp.classify(model, embed(model, t)).data[0], [0.5, 0.5])
        assert lp.predict_ht(model, t) == "Non_Trojan"

    def test_predict_ht_rejects_foreign_encoding(self):
        model = forced_classifier([1.0, 0.0], in_dim=2)
        bad = GraphTensors(X=np.eye(3), A=[(0, 1)], graph_id="bad")
        with pytest.raises(VocabMismatchError, match="re-encode"):
            lp.predict_ht(model, bad)

    def test_pair_similarity_checks_both_sides(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=1)
        good = star_tensors(3, "ok")
        bad = GraphTensors(X=np.eye(3), A=[(0, 1)], graph_id="bad")
        with pytest.raises(VocabMismatchError):
            lp.pair_similarity_value(model, good, bad)
        with pytest.raises(VocabMismatchError):
            lp.pair_similarity_value(model, bad, good)

    def test_same_graph_twice_is_piracy(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=1)
        t = star_tensors(4, "g")
        twin = GraphTensors(X=t.X.copy(), A=list(t.A), graph_id="g2")
        assert lp.pair_similarity_value(model, t, twin) == 1.0
        assert lp.predict_piracy(model, t, twin, delta=0.5) == "Piracy"

    def test_similarity_equal_to_delta_is_non_piracy(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=1)
        t = star_tensors(4, "g")
        twin = GraphTensors(X=t.X.copy(), A=list(t.A), graph_id="g2")
        # identical graphs score exactly 1, and the rule is strictly greater
        assert lp.predict_piracy(model, t, twin, delta=1.0) == "Non_Piracy"

    @pytest.mark.parametrize("sim, delta, want", [
        (0.6, 0.5, "Piracy"), (0.5, 0.5, "Non_Piracy"), (0.4, 0.5, "Non_Piracy"),
        (-0.2, -0.3, "Piracy"), (math.nan, 0.5, "Non_Piracy"),
    ])
    def test_piracy_rule_is_similarity_strictly_above_delta(self, sim, delta, want):
        assert lp.piracy_verdict(sim, delta) == want

    def test_raising_delta_never_creates_piracy(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=5)
        a, b = star_tensors(5, "a"), chain_tensors(5, "b")
        verdicts = [
            lp.predict_piracy(model, a, b, delta=d)
            for d in [-0.9, -0.5, 0.0, 0.3, 0.5, 0.7, 0.9]
        ]
        first_non = (
            verdicts.index("Non_Piracy") if "Non_Piracy" in verdicts else len(verdicts)
        )
        assert all(v == "Piracy" for v in verdicts[:first_non])
        assert all(v == "Non_Piracy" for v in verdicts[first_non:])


class TestForwardOnly:
    """Inference records no backward closures, and its values are still
    checked for finiteness."""

    def test_inference_results_carry_no_tape(self, monkeypatch, tmp_path):
        outputs = []

        def spy(fn):
            def run(*args):
                outputs.append(fn(*args))
                return outputs[-1]
            return run

        for name in ("embed", "classify", "pair_similarity"):
            monkeypatch.setattr(lp, name, spy(getattr(lp, name)))
        classifier = build_model({"in_dim": 2, "conv_dims": [4]}, seed=1)
        siamese = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=1)
        a, b = star_tensors(4, "a"), chain_tensors(4, "b")
        lp.predict_ht(classifier, a)
        lp.export_embeddings(classifier, [a, b], tmp_path / "emb.tsv")
        lp.pair_similarity_value(siamese, a, b)
        assert len(outputs) == 5  # embed and classify, two embeds, one similarity
        assert all(out._parents == () and out._backward_fn is None for out in outputs)

    def test_huge_finite_weights_raise_instead_of_a_verdict(self):
        # finite parameters whose forward pass overflows: NaN probabilities
        # would read as Non_Trojan, since NaN > NaN is false
        model = forced_classifier([0.0, 0.0])
        params = {p.name: p for p in model.params()}
        params["mlp.b0"].data[...] = 1e308
        params["mlp.W1"].data[...] = 1e308
        with pytest.raises(NonFiniteError) as info:
            lp.predict_ht(model, star_tensors(3, "g"))
        assert isinstance(info.value, HwgnnError)


def test_infer_ip_similarity_equals_the_report():
    # every corpus/ip pair, scored alone as infer-ip does and in one
    # evaluate_pairs call as report.json records it, with the fixed checkpoint
    fixed = ROOT / "tools" / "byte_gate" / "ip"
    vocab = graphdata.load_vocab(fixed / "vocab.txt")
    model = lp.load_checkpoint(fixed / "model.ckpt", vocab.fingerprint).model
    dirs = sorted(d for d in (ROOT / "corpus" / "ip").iterdir() if d.is_dir())
    tensors = {d.name: graphdata.encode(graphdata.normalize(
        hw2graph(load_design_dir(d), DFG, design_name=d.name)), vocab) for d in dirs}
    pairs = [GraphPair(a, b, 1) for a, b in itertools.combinations(sorted(tensors), 2)]
    report = lp.evaluate_pairs(model, pairs, tensors, delta=0.5)
    off = [(pair.first, pair.second) for pair, item in zip(pairs, report.per_item)
           if lp.pair_similarity_value(model, tensors[pair.first], tensors[pair.second])
           != item["similarity"]]
    assert len(pairs) == 780
    assert off == []


@pytest.mark.parametrize("fn, name", [
    (lp.evaluate_pairs, "delta"), (lp.predict_piracy, "delta"), (nc.contrastive_loss, "margin"),
    (pool_graph, "readout"), (build_adjacency, "directed"), (nc.Adam, "lr"),
    (build_model, "seed"),
])
def test_setting_backed_arguments_take_no_default(fn, name):
    # the value comes from the caller's settings, never from a second default
    assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty


class TestMetrics:
    def test_mixed_counts(self):
        r = lp.compute_metrics(2, 1, 1, 3)
        assert (r.tp, r.fp, r.fn, r.tn) == (2, 1, 1, 3)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)
        assert r.accuracy == pytest.approx(5 / 7)
        assert r.degenerate is False

    def test_perfect_predictions(self):
        r = lp.compute_metrics(4, 0, 0, 6)
        assert (r.precision, r.recall, r.f1, r.accuracy) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate is False

    def test_no_positives_anywhere_is_degenerate(self):
        r = lp.compute_metrics(0, 0, 0, 5)
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
        assert r.accuracy == 1.0
        assert r.degenerate is True

    def test_empty_dataset_is_degenerate(self):
        r = lp.compute_metrics(0, 0, 0, 0)
        assert (r.precision, r.recall, r.f1, r.accuracy) == (0.0, 0.0, 0.0, 0.0)
        assert r.degenerate is True

    def test_all_false_positives(self):
        r = lp.compute_metrics(0, 3, 0, 0)
        assert r.precision == 0.0
        assert r.accuracy == 0.0
        assert r.degenerate is True  # recall has no positives to divide by

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_formula_invariants(self, tp, fp, fn, tn):
        r = lp.compute_metrics(tp, fp, fn, tn)
        total = tp + fp + fn + tn
        if total:
            assert r.accuracy == pytest.approx((tp + tn) / total)
        if tp + fp and tp + fn:
            P, R = tp / (tp + fp), tp / (tp + fn)
            assert r.precision == pytest.approx(P)
            assert r.recall == pytest.approx(R)
            if P + R:
                assert r.f1 == pytest.approx(2 * P * R / (P + R))
                assert r.f1 <= 2 * min(P, R) + 1e-12
                if P > 0 and R > 0:
                    # harmonic mean sits between the two rates
                    assert min(P, R) - 1e-12 <= r.f1 <= max(P, R) + 1e-12
        degenerate_expected = (
            tp + fp == 0 or tp + fn == 0 or total == 0
            or (tp + fp and tp + fn and tp / (tp + fp) + tp / (tp + fn) == 0)
        )
        assert r.degenerate == bool(degenerate_expected)

    def test_report_json_shape(self):
        r = lp.compute_metrics(1, 0, 1, 2, per_item=[{"graph_id": "g", "prediction": "Trojan"}])
        text = lp.report_to_json(r)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["counts"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 2}
        assert set(doc["metrics"]) == {"precision", "recall", "f1", "accuracy", "degenerate"}
        assert doc["per_item"] == [{"graph_id": "g", "prediction": "Trojan"}]


class TestEvaluate:
    def test_classifier_counts_sum_to_dataset_size(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "classifier"}, seed=2)
        data = [
            star_tensors(3, "a", "Trojan"),
            star_tensors(4, "b", "Trojan"),
            chain_tensors(3, "c", "Non_Trojan"),
            chain_tensors(5, "d", "Non_Trojan"),
        ]
        r = lp.evaluate_classifier(model, data)
        assert r.tp + r.fp + r.fn + r.tn == 4
        assert len(r.per_item) == 4
        assert [item["graph_id"] for item in r.per_item] == ["a", "b", "c", "d"]
        for item in r.per_item:
            assert item["prediction"] in ("Trojan", "Non_Trojan")

    def test_integer_labels_mean_the_same_thing(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "classifier"}, seed=2)
        strings = [star_tensors(3, "a", "Trojan"), chain_tensors(3, "b", "Non_Trojan")]
        ints = [star_tensors(3, "a", 1), chain_tensors(3, "b", 0)]
        a, b = lp.evaluate_classifier(model, strings), lp.evaluate_classifier(model, ints)
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_unknown_label_rejected(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "classifier"}, seed=2)
        with pytest.raises(BadLabelError):
            lp.evaluate_classifier(model, [star_tensors(3, "a", "banana")])

    def test_pairs_report_carries_similarities(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=3)
        _, _, tensors = pair_corpus()
        pairs = [GraphPair("s0", "s0x", 1), GraphPair("s0", "c0", -1)]
        r = lp.evaluate_pairs(model, pairs, tensors, delta=0.5)
        assert r.tp + r.fp + r.fn + r.tn == 2
        for item, pair in zip(r.per_item, pairs):
            want = lp.pair_similarity_value(
                model, tensors[pair.first], tensors[pair.second]
            )
            assert item["similarity"] == pytest.approx(want, abs=1e-12)
            assert item["prediction"] == ("Piracy" if item["similarity"] > 0.5 else "Non_Piracy")

    def test_pairs_report_equals_embedding_each_member_separately(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=3)
        train_pairs, val_pairs, tensors = pair_corpus()
        pairs = train_pairs + val_pairs  # most designs appear in several pairs
        outcomes, per_item = [], []
        for pair in pairs:
            sim = lp.pair_similarity_value(model, tensors[pair.first], tensors[pair.second])
            outcomes.append((sim > 0.5, pair.label == 1))
            per_item.append({"first": pair.first, "second": pair.second, "label": pair.label,
                             "similarity": sim,
                             "prediction": "Piracy" if sim > 0.5 else "Non_Piracy"})
        c = Counter(outcomes)
        want = lp.compute_metrics(c[True, True], c[True, False], c[False, True],
                                  c[False, False], per_item)
        got = lp.evaluate_pairs(model, pairs, tensors, delta=0.5)
        # a pair scored alone takes the same bits as in the whole set's batch
        assert got == want

    def test_pairs_delta_moves_the_boundary(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=3)
        _, _, tensors = pair_corpus()
        # c0x is a verbatim copy of c0, so the similarity is exactly 1.0
        pairs = [GraphPair("c0", "c0x", 1)]
        lenient = lp.evaluate_pairs(model, pairs, tensors, delta=-0.99)
        strict = lp.evaluate_pairs(model, pairs, tensors, delta=1.0)
        assert lenient.tp == 1
        assert strict.fn == 1


@pytest.fixture
def adams(monkeypatch):
    """Every Adam optimizer built while the test runs; ``t`` counts its steps."""
    made = []

    class Recording(nc.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(nc, "Adam", Recording)
    return made


@pytest.fixture(scope="module")
def classifier_run():
    train, val = classifier_corpus()
    ckpt = lp.train_graph_classifier(train, val, tiny_cfg(), vocab_fingerprint="fp-ht")
    return ckpt, val


@pytest.fixture(scope="module")
def pair_run():
    train_pairs, val_pairs, tensors = pair_corpus()
    cfg = tiny_cfg()
    ckpt = lp.train_pair_model(train_pairs, val_pairs, tensors, cfg, vocab_fingerprint="fp-ip")
    return ckpt, val_pairs, tensors, cfg


class TestClassifierTraining:
    def test_separable_corpus_reaches_perfect_f1(self, classifier_run):
        ckpt, _ = classifier_run
        assert ckpt.best_metric == 1.0

    def test_returned_model_reproduces_best_metric(self, classifier_run):
        ckpt, val = classifier_run
        assert lp.evaluate_classifier(ckpt.model, val).f1 == ckpt.best_metric

    def test_best_metric_is_max_over_evaluations(self, classifier_run):
        ckpt, _ = classifier_run
        assert ckpt.best_metric == max(h["f1"] for h in ckpt.history)
        assert any(h["step"] == ckpt.best_step for h in ckpt.history)

    def test_history_steps_are_nondecreasing(self, classifier_run):
        ckpt, _ = classifier_run
        steps = [h["step"] for h in ckpt.history]
        assert steps == sorted(steps)
        assert steps[0] == 0

    def test_same_seed_same_trajectory(self):
        train, val = classifier_corpus()
        cfg = tiny_cfg(epochs=4)
        a = lp.train_graph_classifier(train, val, cfg)
        b = lp.train_graph_classifier(train, val, cfg)
        assert a.history == b.history
        for pa, pb in zip(a.model.params(), b.model.params()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)

    def test_zero_epochs_keeps_initial_weights(self):
        train, val = classifier_corpus()
        cfg = tiny_cfg(epochs=0)
        ckpt = lp.train_graph_classifier(train, val, cfg, vocab_fingerprint="z")
        fresh = build_model(cfg.arch(2, "classifier"), seed=cfg.seed, vocab_fingerprint="z")
        for trained, init in zip(ckpt.model.params(), fresh.params()):
            assert np.array_equal(trained.data, init.data)
        assert ckpt.best_step == 0
        assert [h["step"] for h in ckpt.history] == [0, 0]
        assert ckpt.best_metric == ckpt.history[0]["f1"]

    def test_empty_sets_rejected(self):
        train, val = classifier_corpus()
        with pytest.raises(ValueError):
            lp.train_graph_classifier([], val, tiny_cfg())
        with pytest.raises(ValueError):
            lp.train_graph_classifier(train, [], tiny_cfg())

    def test_training_stops_at_the_first_perfect_validation(self, adams):
        train, val = classifier_corpus()
        ckpt = lp.train_graph_classifier(train, val, tiny_cfg())
        s = ckpt.best_step
        assert s > 0 and ckpt.best_metric == 1.0
        assert all(h["f1"] < 1.0 for h in ckpt.history[:-1])
        assert ckpt.history[-1] == {"step": s, "f1": 1.0}
        assert adams[0].t == s  # of the 50 * ceil(20 / 4) = 250 steps allowed

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_run_aborts_with_context(self):
        train, val = classifier_corpus()
        cfg = tiny_cfg(epochs=2, optimizer="sgd", lr=1e200, activation="relu",
                       conv_dims=[4, 4])
        with pytest.raises(DivergenceError) as exc:
            lp.train_graph_classifier(train, val, cfg)
        assert exc.value.step >= 1
        assert math.isfinite(exc.value.last_finite_loss)


class TestPairTraining:
    def test_identical_vs_distinct_pairs_reach_perfect_accuracy(self, pair_run):
        ckpt, _, _, _ = pair_run
        assert ckpt.best_metric == 1.0

    def test_returned_model_reproduces_best_metric(self, pair_run):
        ckpt, val_pairs, tensors, cfg = pair_run
        r = lp.evaluate_pairs(ckpt.model, val_pairs, tensors, cfg.delta)
        assert r.accuracy == ckpt.best_metric

    def test_best_metric_is_max_over_evaluations(self, pair_run):
        ckpt, _, _, _ = pair_run
        assert ckpt.best_metric == max(h["accuracy"] for h in ckpt.history)

    def test_positive_batch_loss_is_sum_of_one_minus_similarity(self):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=7)
        _, _, tensors = pair_corpus()
        pairs = [GraphPair("s0", "s1", 1), GraphPair("c0", "c1", 1), GraphPair("s2", "c3", 1)]
        total = sum(
            lp.contrastive_loss(
                nc.constant([[lp.pair_similarity_value(model, tensors[p.first], tensors[p.second])]]),
                1,
                0.5,
            ).item()
            for p in pairs
        )
        sims = [
            lp.pair_similarity_value(model, tensors[p.first], tensors[p.second]) for p in pairs
        ]
        assert total == pytest.approx(len(pairs) - sum(sims), abs=1e-12)

    def test_all_positive_training_runs(self):
        _, _, tensors = pair_corpus()
        train_pairs = [GraphPair("s0", "s0x", 1), GraphPair("c0", "c0x", 1)]
        val_pairs = [GraphPair("s1", "s1x", 1)]
        ckpt = lp.train_pair_model(train_pairs, val_pairs, tensors, tiny_cfg(epochs=2))
        assert ckpt.best_metric == 1.0

    def test_same_seed_same_trajectory(self):
        train_pairs, val_pairs, tensors = pair_corpus()
        cfg = tiny_cfg(epochs=3)
        a = lp.train_pair_model(train_pairs, val_pairs, tensors, cfg)
        b = lp.train_pair_model(train_pairs, val_pairs, tensors, cfg)
        assert a.history == b.history
        for pa, pb in zip(a.model.params(), b.model.params()):
            assert np.array_equal(pa.data, pb.data)

    def test_empty_sets_rejected(self):
        train_pairs, val_pairs, tensors = pair_corpus()
        with pytest.raises(ValueError):
            lp.train_pair_model([], val_pairs, tensors, tiny_cfg())
        with pytest.raises(ValueError):
            lp.train_pair_model(train_pairs, [], tensors, tiny_cfg())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_run_aborts_with_context(self):
        train_pairs, val_pairs, tensors = pair_corpus()
        val_pairs = contradicted(val_pairs)
        cfg = tiny_cfg(epochs=2, optimizer="sgd", lr=1e200, activation="relu",
                       conv_dims=[4, 4])
        with pytest.raises(DivergenceError) as exc:
            lp.train_pair_model(train_pairs, val_pairs, tensors, cfg)
        assert exc.value.step >= 1

    def test_run_below_the_ceiling_takes_every_step(self, adams):
        train_pairs, val_pairs, tensors = pair_corpus()
        val_pairs = contradicted(val_pairs)
        ckpt = lp.train_pair_model(train_pairs, val_pairs, tensors,
                                   tiny_cfg(epochs=2, mini_test_interval=3))
        assert ckpt.best_metric < 1.0
        assert adams[0].t == 6  # 2 epochs of ceil(12 / 4) steps
        assert [h["step"] for h in ckpt.history] == [0, 3, 6, 6]

    def test_perfect_initial_validation_takes_no_step(self):
        # without the contradictory pair, the untrained model already scores
        # accuracy 1.0, so the run that would diverge returns untouched
        train_pairs, val_pairs, tensors = pair_corpus()
        cfg = tiny_cfg(epochs=2, optimizer="sgd", lr=1e200, activation="relu",
                       conv_dims=[4, 4])
        ckpt = lp.train_pair_model(train_pairs, val_pairs, tensors, cfg)
        assert ckpt.best_metric == 1.0
        assert ckpt.best_step == 0
        assert ckpt.history == [{"step": 0, "accuracy": 1.0}]
        untrained = build_model(ckpt.model.arch, seed=cfg.seed)
        for p, q in zip(ckpt.model.params(), untrained.params()):
            assert np.array_equal(p.data, q.data), p.name


def reheader(blob: bytes, mutate) -> bytes:
    """Rewrite the checkpoint header through `mutate`, fixing up the length."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20 : 20 + header_len])
    mutate(header)
    new = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return blob[:12] + struct.pack("<Q", len(new)) + new + blob[20 + header_len :]


class TestCheckpointFile:
    def make_classifier(self, fingerprint="abc123"):
        return build_model(
            {"in_dim": 2, "conv_dims": [5, 3], "mlp_hidden": [4], "head": "classifier"},
            seed=4,
            vocab_fingerprint=fingerprint,
        )

    def test_round_trip_reproduces_inference_exactly(self, tmp_path):
        model = self.make_classifier()
        path = tmp_path / "m.ckpt"
        lp.save_checkpoint(lp.Checkpoint(model=model, best_metric=0.75), path)
        loaded = lp.load_checkpoint(path)
        t = star_tensors(5, "g")
        assert np.array_equal(embed(loaded.model, t).data, embed(model, t).data)
        assert np.array_equal(
            lp.classify(loaded.model, embed(loaded.model, t)).data,
            lp.classify(model, embed(model, t)).data,
        )
        assert loaded.best_metric == 0.75
        assert loaded.model.arch == model.arch
        assert loaded.model.vocab_fingerprint == "abc123"

    def test_round_trip_siamese_similarity(self, tmp_path):
        model = build_model({"in_dim": 2, "conv_dims": [4], "head": "siamese"}, seed=6)
        path = tmp_path / "m.ckpt"
        lp.save_checkpoint(lp.Checkpoint(model=model, best_metric=1.0), path)
        loaded = lp.load_checkpoint(path).model
        a, b = star_tensors(4, "a"), chain_tensors(4, "b")
        assert lp.pair_similarity_value(loaded, a, b) == lp.pair_similarity_value(model, a, b)

    def test_saving_twice_gives_identical_bytes(self, tmp_path):
        model = self.make_classifier()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        lp.save_checkpoint(lp.Checkpoint(model=model, best_metric=0.5), p1)
        lp.save_checkpoint(lp.Checkpoint(model=model, best_metric=0.5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bare_model_load_has_nan_metric(self, tmp_path):
        path = tmp_path / "m.ckpt"
        lp.save_checkpoint(self.make_classifier(), path)
        assert math.isnan(lp.load_checkpoint(path).best_metric)

    def test_nonfinite_best_metric_stored_as_missing(self, tmp_path):
        path = tmp_path / "m.ckpt"
        lp.save_checkpoint(lp.Checkpoint(model=self.make_classifier(), best_metric=math.inf), path)
        assert math.isnan(lp.load_checkpoint(path).best_metric)

    def test_fingerprint_checked_on_request(self, tmp_path):
        path = tmp_path / "m.ckpt"
        lp.save_checkpoint(lp.Checkpoint(model=self.make_classifier("right"), best_metric=0.0), path)
        lp.load_checkpoint(path, vocab_fingerprint="right")
        lp.load_checkpoint(path, vocab_fingerprint=None)
        with pytest.raises(VocabMismatchError, match="vocabulary file saved next to this checkpoint"):
            lp.load_checkpoint(path, vocab_fingerprint="wrong")

    def checkpoint_bytes(self, tmp_path) -> bytes:
        path = tmp_path / "m.ckpt"
        lp.save_checkpoint(lp.Checkpoint(model=self.make_classifier(), best_metric=0.25), path)
        return path.read_bytes()

    def load_raw(self, tmp_path, blob: bytes) -> lp.Checkpoint:
        path = tmp_path / "tampered.ckpt"
        path.write_bytes(blob)
        return lp.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        with pytest.raises(CorruptFileError, match="not a checkpoint"):
            self.load_raw(tmp_path, b"garbage bytes that are long enough to read")
        with pytest.raises(CorruptFileError):
            self.load_raw(tmp_path, b"")

    def test_future_version_refused(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)
        blob = blob[:8] + struct.pack("<I", 2) + blob[12:]
        with pytest.raises(VersionMismatchError, match="format 2"):
            self.load_raw(tmp_path, blob)

    def test_truncated_header(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)
        with pytest.raises(CorruptFileError, match="truncated header"):
            self.load_raw(tmp_path, blob[:24])

    def test_truncated_parameter_block(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)
        with pytest.raises(CorruptFileError, match="truncated parameter block"):
            self.load_raw(tmp_path, blob[:-16])

    def test_trailing_bytes_refused(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)
        with pytest.raises(CorruptFileError, match="trailing bytes"):
            self.load_raw(tmp_path, blob + b"\x00\x00")

    def test_mangled_header_json(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)
        blob = blob[:20] + b"X" + blob[21:]
        with pytest.raises(CorruptFileError, match="unreadable header"):
            self.load_raw(tmp_path, blob)

    def test_renamed_parameter_refused(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)

        def rename(header):
            header["params"][0]["name"] += "_x"

        with pytest.raises(CorruptFileError, match="parameter list"):
            self.load_raw(tmp_path, reheader(blob, rename))

    def test_wrong_shape_refused(self, tmp_path):
        blob = self.checkpoint_bytes(tmp_path)

        def stretch(header):
            header["params"][0]["rows"] += 1

        with pytest.raises(CorruptFileError, match="shape mismatch"):
            self.load_raw(tmp_path, reheader(blob, stretch))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h.pop("arch"),
            lambda h: h["arch"].update(readout="max"),
            lambda h: h["arch"].update(conv_dims=5),
            lambda h: h["arch"].update(depth=3),
            lambda h: h["arch"].update(in_dim=None),
            lambda h: h["params"][0].pop("rows"),
            lambda h: h.clear(),
        ],
        ids=["no-arch", "readout-max", "conv-dims-scalar", "unknown-arch-key",
             "null-in-dim", "spec-without-rows", "empty-header"],
    )
    def test_malformed_header_is_corrupt(self, tmp_path, mutate):
        blob = self.checkpoint_bytes(tmp_path)
        with pytest.raises(CorruptFileError):
            self.load_raw(tmp_path, reheader(blob, mutate))


class TestExportEmbeddings:
    def export(self, tmp_path, dataset):
        model = build_model({"in_dim": 2, "conv_dims": [5], "head": "siamese"}, seed=8)
        path = tmp_path / "emb.tsv"
        lp.export_embeddings(model, dataset, path)
        return model, path

    def test_table_shape(self, tmp_path):
        data = [star_tensors(3, "a", "Trojan"), chain_tensors(4, "b", "Non_Trojan")]
        _, path = self.export(tmp_path, data)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "graph_id\tlabel\te0\te1\te2\te3\te4"
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split("\t")) == 7

    def test_values_match_live_embeddings_exactly(self, tmp_path):
        data = [star_tensors(3, "a", "Trojan"), chain_tensors(4, "b", "Non_Trojan")]
        model, path = self.export(tmp_path, data)
        for line, t in zip(path.read_text(encoding="utf-8").splitlines()[1:], data):
            fields = line.split("\t")
            assert fields[0] == t.graph_id
            assert fields[1] == str(t.label)
            want = embed(model, t).data.reshape(-1)
            assert [float(x) for x in fields[2:]] == list(want)

    def test_missing_label_is_empty_field(self, tmp_path):
        _, path = self.export(tmp_path, [star_tensors(3, "a")])
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert row.split("\t")[1] == ""

    def test_re_export_is_byte_identical(self, tmp_path):
        data = [star_tensors(k, f"g{k}") for k in (3, 4, 5)]
        model, path = self.export(tmp_path, data)
        again = tmp_path / "again.tsv"
        lp.export_embeddings(model, data, again)
        assert path.read_bytes() == again.read_bytes()
