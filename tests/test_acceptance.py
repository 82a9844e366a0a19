"""Release gate: nine end-to-end checks with pinned tolerances and budgets.

Each criterion is one test; run with -s to see the one-line PASS/FAIL
summaries, or rely on the per-test verdicts from -v.  Criterion 1 pins the
F1 that the published precision and recall imply, not the quoted 0.92596,
because no confusion matrix yields that quoted triple at once.
"""
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import assert_edges
from test_dfg import dag_signature, oracle_nodes_edges
from test_graph2vec import alpha_of
from hwgnn import graphdata, learnpipe, synth
from hwgnn import nncore as nc
from hwgnn.cli import main
from hwgnn.graph2vec import build_model, classify, embed
from hwgnn.hwgraph import (
    AST,
    graph_from_json,
    graph_to_json,
    hw2graph,
    load_design_dir,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# Published Trojan-detection triple.  F1 = 2tp/(2tp+fp+fn) depends only on
# precision and recall, and the quoted P and R force F1 = 0.92613332, which is
# 1.7e-4 from the quoted F1.  Moving P and R within their 5-digit rounding
# intervals shifts that harmonic mean by at most 5e-6, so rounding does not
# explain the gap; an average of per-run P, R and F1 would (the harmonic mean
# is concave), but nothing here settles how the triple was aggregated.  The
# quoted F1 is kept for context only.
PUBLISHED_PRECISION = 0.87334
PUBLISHED_RECALL = 0.98572
PUBLISHED_F1 = 0.92596


def test_criterion_1_published_metric_reproduction():
    # smallest integer counts with exactly the published rates:
    # P = 43667/50000 and R = 24643/25000
    tp, fp, fn = 1_076_085_881, 156_064_119, 15_589_119
    expected_f1 = float(Fraction(2 * tp, 2 * tp + fp + fn))

    def timed() -> float:
        started = time.perf_counter()
        learnpipe.compute_metrics(tp, fp, fn, 0)
        return time.perf_counter() - started

    timed()  # warm-up
    elapsed = min(timed() for _ in range(5))
    report = learnpipe.compute_metrics(tp, fp, fn, 0)
    assert report.precision == pytest.approx(PUBLISHED_PRECISION, abs=1e-12)
    assert report.recall == pytest.approx(PUBLISHED_RECALL, abs=1e-12)
    diff = abs(report.f1 - expected_f1)
    ok = diff <= 1e-12 and elapsed < 1e-3
    verdict(
        1,
        ok,
        f"f1={report.f1:.16f} vs exact {expected_f1:.16f}, |diff|={diff:.2e} "
        f"(tolerance 1e-12; published F1 {PUBLISHED_F1} is not attainable "
        f"from the published P and R), {elapsed * 1e3:.3f} ms (budget 1 ms)",
    )


def _selection_gap(model, tensors) -> float:
    """Margin between the kept and dropped pooling scores."""
    scores = np.sort(alpha_of(model, tensors))[::-1]
    k = max(1, math.ceil(model.arch["pooling_ratio"] * len(scores)))
    return math.inf if k >= len(scores) else float(scores[k - 1] - scores[k])


def _worst_rel_error(build_loss, params, h=1e-5) -> float:
    nc.zero_grads(params)
    nc.backward(build_loss())
    worst = 0.0
    for p in params:
        grads = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])))
    return worst


def test_criterion_2_full_model_gradients():
    started = time.perf_counter()
    worst = 0.0
    target = np.array([[1.0, 0.0]])
    for seed in range(100):
        n = 5 + seed % 16
        model = build_model(
            {"in_dim": 4, "conv_dims": [6, 6], "activation": "tanh",
             "mlp_hidden": [8], "head": "classifier"},
            seed=seed,
        )
        # jittered features keep the top-k boundary away from the nudges
        for attempt in range(5):
            rng = np.random.default_rng(1000 * seed + attempt)
            t = synth.random_graph_tensors(rng, n, 4, jitter=0.05)
            if _selection_gap(model, t) > 1e-4:
                break
        else:
            raise AssertionError(f"no stable pooling selection for seed {seed}")

        def build_loss():
            return learnpipe.cross_entropy(classify(model, embed(model, t)), target)

        worst = max(worst, _worst_rel_error(build_loss, model.params()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(2, ok, f"max relative error {worst:.2e} over 100 seeds (bound 1e-4), "
                   f"{elapsed:.1f}s (budget 60s)")


def test_criterion_3_permutation_invariance():
    started = time.perf_counter()
    model = build_model(
        {"in_dim": 5, "conv_dims": [8, 8], "activation": "tanh", "head": "siamese"},
        seed=1,
    )
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 21))
        t = synth.random_graph_tensors(rng, n, 5, jitter=0.05)
        perm = rng.permutation(n)
        X = np.zeros_like(t.X)
        for v in range(n):
            X[perm[v]] = t.X[v]
        relabeled = graphdata.GraphTensors(
            X=X,
            A=[(int(perm[s]), int(perm[d])) for s, d in t.A],
            graph_id=t.graph_id,
        )
        diff = np.abs(embed(model, t).data - embed(model, relabeled).data).max()
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 30.0
    verdict(3, ok, f"max embedding deviation {worst:.2e} over 200 relabelings "
                   f"(bound 1e-6), {elapsed:.1f}s (budget 30s)")


def test_criterion_4_dataflow_oracle_equivalence():
    from conftest import dfg_of

    started = time.perf_counter()
    for seed in range(50):
        mod = synth.random_assign_module(np.random.default_rng(seed), max_signals=15)
        g = dfg_of(mod.text)
        labels, names, edges = oracle_nodes_edges(mod)
        assert g.num_nodes == len(labels), mod.text
        assert g.num_edges == len(edges), mod.text
        got = dag_signature(
            [node.label for node in g.nodes], [node.name for node in g.nodes], g.edges
        )
        assert got == dag_signature(labels, names, edges), mod.text
    elapsed = time.perf_counter() - started
    verdict(4, elapsed < 30.0,
            f"50 modules matched the dependency-closure walker exactly, "
            f"{elapsed:.1f}s (budget 30s)")


def test_criterion_5_trojan_end_to_end(tmp_path):
    cfg = tmp_path / "cfg.yml"
    cfg.write_text(yaml.safe_dump({"corpus": str(CORPUS / "ht")}), encoding="utf-8")
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = main(["train-ht", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    f1 = report["metrics"]["f1"]
    counts = report["counts"]
    assert sum(counts.values()) == 12  # 20% of the 60 bundled designs
    ok = f1 >= 0.90 and elapsed < 300.0
    verdict(5, ok, f"test f1={f1:.4f} on the 30+30 corpus (floor 0.90), "
                   f"{elapsed:.1f}s (budget 300s)")


def test_criterion_6_piracy_end_to_end(tmp_path):
    cfg = tmp_path / "cfg.yml"
    cfg.write_text(yaml.safe_dump({"corpus": str(CORPUS / "ip")}), encoding="utf-8")
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = main(["train-ip", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    accuracy = report["metrics"]["accuracy"]
    ok = accuracy >= 0.90 and elapsed < 600.0
    verdict(6, ok, f"pair accuracy={accuracy:.4f} at delta 0.5 over the 8x5 corpus "
                   f"(floor 0.90), {elapsed:.1f}s (budget 600s)")


def test_criterion_7_training_step_timing():
    model = build_model(
        {"in_dim": 8, "conv_dims": [64, 64], "mlp_hidden": [32], "head": "classifier"},
        seed=0,
    )
    t = synth.random_graph_tensors(np.random.default_rng(0), 1000, 8, avg_degree=3.0)
    target = np.array([[1.0, 0.0]])
    params = model.params()

    def step() -> float:
        nc.zero_grads(params)
        started = time.perf_counter()
        loss = learnpipe.cross_entropy(classify(model, embed(model, t)), target)
        nc.backward(loss)
        return time.perf_counter() - started

    step()  # warm-up
    best = min(step() for _ in range(3))
    verdict(7, best < 0.25,
            f"forward+backward on a 1000-node graph: {best * 1e3:.0f} ms "
            f"(budget 250 ms)")


def test_criterion_8_round_trip_suite(tmp_path):
    started = time.perf_counter()
    for seed in range(100):
        g = synth.random_hwgraph(np.random.default_rng(seed))
        text = graph_to_json(g)
        back = graph_from_json(text)
        assert back == g
        assert graph_to_json(back) == text
    for seed in range(100):
        model = build_model(
            {"in_dim": 2 + seed % 3, "conv_dims": [3],
             "head": "classifier" if seed % 2 else "siamese", "mlp_hidden": [2]},
            seed=seed,
            vocab_fingerprint=f"fp{seed}",
        )
        path = tmp_path / "m.ckpt"
        learnpipe.save_checkpoint(learnpipe.Checkpoint(model=model, best_metric=0.5), path)
        loaded = learnpipe.load_checkpoint(path)
        for p, q in zip(model.params(), loaded.model.params()):
            assert p.name == q.name
            assert np.array_equal(p.data, q.data)
    cache = tmp_path / "cache"
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = synth.random_graph_tensors(rng, int(rng.integers(2, 20)), 4,
                                       graph_id=f"g{seed}")
        t.label = "Trojan" if seed % 2 else None
        graphdata.cache_put(cache, f"k{seed}", t)
        got = graphdata.cache_get(cache, f"k{seed}")
        assert got is not None
        assert np.array_equal(got.X, t.X)
        assert_edges(got.A, t.A)
        assert (got.graph_id, got.label) == (t.graph_id, t.label)
    elapsed = time.perf_counter() - started
    verdict(8, elapsed < 10.0,
            f"100 graph JSON, 100 checkpoint, and 100 cache round trips "
            f"bit-exact, {elapsed:.1f}s (budget 10s)")


def test_criterion_9_bundled_corpus_syntax_trees():
    slowest = 0.0
    checked = 0
    for sub in ("ht", "ip"):
        for d in sorted((CORPUS / sub).iterdir()):
            if not d.is_dir():
                continue
            started = time.perf_counter()
            g = hw2graph(load_design_dir(d), AST, design_name=d.name)
            elapsed = time.perf_counter() - started
            g.validate()
            assert g.num_edges == g.num_nodes - 1, d.name
            targets = {dst for _, dst in g.edges}
            roots = [n.id for n in g.nodes if n.id not in targets]
            assert roots == [0], d.name
            assert elapsed < 2.0, f"{d.name} took {elapsed:.2f}s"
            slowest = max(slowest, elapsed)
            checked += 1
    verdict(9, checked == 100,
            f"{checked} bundled designs extract to single-root trees with "
            f"|E|=|V|-1, slowest {slowest * 1e3:.0f} ms (per-design budget 2s)")
