"""Tests of the benchmark's own pieces: the closure walker, the corpus
generator and every workload's output check.

    python3 -m pytest perfbench/tests -q

Each check is shown to pass on the program's real output and to fail on a
deliberately corrupted copy of it.
"""
from __future__ import annotations

import copy
import json
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import walker  # noqa: E402
from hwgnn import graph2vec, learnpipe  # noqa: E402
from hwgnn.graphdata import NodeVocab, encode, normalize  # noqa: E402
from hwgnn.hwgraph import AST, DFG, graph_to_json, hw2graph, load_design_dir  # noqa: E402


def sig(name):
    return ["sig", name]


# --- walker: hand-worked graphs ---

def test_walker_shared_dependency():
    # tests/test_dfg.py SHARED_DEP: c = a & b; d = c | a.  c's fragment is
    # c, And, a, b (3 edges); d's is d, Or, c, And, a, b (6 edges); the
    # merge unifies a, b, c and keeps both And nodes: 7 nodes, 9 edges.
    truth = {"kinds": {"a": "input", "b": "input", "c": "output", "d": "output"},
             "drivers": {"c": ["And", sig("a"), sig("b")], "d": ["Or", sig("c"), sig("a")]}}
    exp = walker.expected_dfg(truth)
    assert (exp["nodes"], exp["edges"]) == (7, 9)
    assert exp["labels"] == Counter({"input": 2, "output": 2, "And": 2, "Or": 1})


def test_walker_single_fragment_and_disjoint_fragments():
    one = {"kinds": {}, "drivers": {"c": ["And", sig("a"), sig("b")]}}
    assert walker.expected_dfg(one)["nodes"] == 4
    assert walker.expected_dfg(one)["edges"] == 3
    two = {"kinds": {s: "input" for s in "ab"} | {s: "output" for s in "cd"},
           "drivers": {"c": sig("a"), "d": sig("b")}}
    exp = walker.expected_dfg(two)
    assert (exp["nodes"], exp["edges"]) == (4, 2)


def test_walker_constants_per_occurrence_and_repeated_operands():
    truth = {"kinds": {"a": "input", "c": "output", "d": "output"},
             "drivers": {"c": ["And", sig("a"), ["const", "1'b1"]],
                         "d": ["Or", sig("a"), ["const", "1'b1"]]}}
    assert walker.expected_dfg(truth)["labels"]["const"] == 2
    # a ^ a: one Xor node with a single edge to a
    same = {"kinds": {}, "drivers": {"c": ["Xor", sig("a"), sig("a")]}}
    exp = walker.expected_dfg(same)
    assert (exp["nodes"], exp["edges"]) == (3, 2)


def test_walker_xor_chain_grows_quadratically():
    # w_i = w_{i-1} ^ a for i = 1..d over inputs a and w0: fragment i holds
    # i Xor nodes, so the merge has d(d+1)/2 Xors plus d + 2 signals, and
    # each Xor has two edges plus the edge into it from its signal.
    for d in range(1, 8):
        drivers = {f"w{i}": ["Xor", sig(f"w{i - 1}"), sig("a")] for i in range(1, d + 1)}
        exp = walker.expected_dfg({"kinds": {}, "drivers": drivers})
        xors = d * (d + 1) // 2
        assert exp["nodes"] == xors + d + 2
        assert exp["edges"] == 3 * xors


def test_walker_matches_the_program_on_a_cycle():
    text = ("module m(input clk, input a, output y);\n  reg r;\n"
            "  always @(posedge clk) r <= r ^ a;\n  assign y = r & a;\nendmodule\n")
    truth = {"kinds": {"clk": "input", "a": "input", "y": "output", "r": "signal"},
             "drivers": {"r": ["Xor", sig("r"), sig("a")], "y": ["And", sig("r"), sig("a")]}}
    exp = walker.expected_dfg(truth)
    from hwgnn.hwgraph import SourceUnit

    g = hw2graph(SourceUnit(files=[(Path("m.v"), text)]), DFG, design_name="m")
    assert (g.num_nodes, g.num_edges) == (exp["nodes"], exp["edges"])
    assert Counter(n.label for n in g.nodes) == exp["labels"]


# --- generator ---

def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("corpus", sorted(gen.CORPORA))
def test_generator_is_byte_reproducible(tmp_path, corpus):
    gen.generate(corpus, 3, tmp_path / "a")
    gen.generate(corpus, 3, tmp_path / "b")
    gen.generate(corpus, 4, tmp_path / "c")
    a, b, c = (_tree(tmp_path / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_generator_twins_rename_and_reorder(tmp_path):
    truths = gen.generate("extract", 5, tmp_path)
    for name, truth in truths.items():
        if name == truth["base"]:
            continue
        base = truths[truth["base"]]
        assert set(truth["drivers"]).isdisjoint(base["drivers"])
        t_text = (tmp_path / "designs" / name / f"{name}.v").read_text()
        b_text = (tmp_path / "designs" / base["design"] / f"{base['design']}.v").read_text()
        assert sorted(t_text.split()) != sorted(b_text.split())
        assert walker.expected_dfg(truth) == walker.expected_dfg(base)


def test_screen_corpus_stays_in_the_bundled_vocabulary(tmp_path):
    vocab = {"And", "Branch", "Eq", "Or", "Plus", "Xor", "const", "input", "output", "signal"}
    for truth in gen.generate("screen", 2, tmp_path).values():
        assert set(walker.expected_dfg(truth)["labels"]) <= vocab


# --- extract check ---

@pytest.fixture(scope="module")
def small_designs(tmp_path_factory):
    """The two smallest generated extract designs with their twins, and the
    program's DFG and AST documents for each."""
    root = tmp_path_factory.mktemp("extract")
    truths = gen.generate("extract", 7, root)
    sizes = {n: walker.expected_dfg(t)["nodes"] for n, t in truths.items()}
    bases = sorted((n for n, t in truths.items() if n == t["base"]), key=sizes.get)[:2]
    names = bases + [f"{b}_twin" for b in bases]
    docs = {}
    for n in names:
        design = load_design_dir(root / "designs" / n)
        docs[n] = {kind: json.loads(graph_to_json(hw2graph(design, kind, design_name=n)))
                   for kind in (DFG, AST)}
    expected = {n: walker.expected_dfg(truths[n]) for n in names}
    return docs, expected, {f"{b}_twin": b for b in bases}


def test_extract_check_accepts_program_output(small_designs):
    docs, expected, twins = small_designs
    for name, d in docs.items():
        checks.check_dfg(d[DFG], expected[name])
        checks.check_ast(d[AST])
    checks.check_twins({n: d[DFG] for n, d in docs.items()}, twins)


def test_extract_check_rejects_a_dropped_dfg_edge(small_designs):
    docs, expected, _ = small_designs
    name = next(iter(docs))
    bad = copy.deepcopy(docs[name][DFG])
    bad["edges"].pop(len(bad["edges"]) // 2)
    with pytest.raises(checks.CheckError, match="edges"):
        checks.check_dfg(bad, expected[name])


def test_extract_check_rejects_a_relabelled_dfg_node(small_designs):
    docs, expected, twins = small_designs
    twin, base = next(iter(twins.items()))
    bad = copy.deepcopy(docs[twin][DFG])
    node = next(n for n in bad["nodes"] if n["label"] == "signal")
    node["label"] = "const"
    with pytest.raises(checks.CheckError, match="label multiset"):
        checks.check_dfg(bad, expected[twin])
    with pytest.raises(checks.CheckError, match="differs from its base"):
        checks.check_twins({base: docs[base][DFG], twin: bad}, {twin: base})


def test_extract_check_rejects_a_broken_ast(small_designs):
    docs, _, _ = small_designs
    ast = docs[next(iter(docs))][AST]
    dropped = copy.deepcopy(ast)
    dropped["edges"].pop()
    with pytest.raises(checks.CheckError, match="edges for"):
        checks.check_ast(dropped)
    rewired = copy.deepcopy(ast)
    rewired["edges"][-1]["dst"] = rewired["edges"][0]["dst"]
    with pytest.raises(checks.CheckError):
        checks.check_ast(rewired)


# --- screen check ---

SCREEN_VOCAB = ["And", "Branch", "Eq", "Or", "Plus", "Xor", "const", "input", "output", "signal"]


@pytest.fixture(scope="module")
def screened(tmp_path_factory):
    """A seeded classifier checkpoint and, for the two smallest screen
    designs and their twins, the program's embeddings and verdicts."""
    root = tmp_path_factory.mktemp("screen")
    truths = gen.generate("screen", 4, root)
    sizes = {n: walker.expected_dfg(t)["nodes"] for n, t in truths.items()}
    bases = sorted((n for n, t in truths.items() if n == t["base"]), key=sizes.get)[:2]
    names = bases + [f"{b}_twin" for b in bases]
    vocab = NodeVocab(SCREEN_VOCAB)
    model = graph2vec.build_model({"in_dim": len(vocab)}, seed=3)
    learnpipe.save_checkpoint(model, root / "model.ckpt")
    graphs, tensors = {}, []
    for n in names:
        g = hw2graph(load_design_dir(root / "designs" / n), DFG, design_name=n)
        graphs[n] = json.loads(graph_to_json(g))
        tensors.append(encode(normalize(g), vocab))
    learnpipe.export_embeddings(model, tensors, root / "embeddings.tsv")
    emb = checks.read_embeddings((root / "embeddings.tsv").read_text())
    verdicts = {t.graph_id: learnpipe.predict_ht(model, t) for t in tensors}
    arch, params = checks.read_checkpoint(root / "model.ckpt")
    return {"emb": emb, "verdicts": verdicts, "designs": names,
            "twins": {f"{b}_twin": b for b in bases}, "arch": arch, "params": params,
            "vocab": SCREEN_VOCAB, "sample_graphs": {b: graphs[b] for b in bases}}


def _check_screen(s, **override):
    args = dict(s, **override)
    checks.check_screen(args["emb"], args["verdicts"], args["designs"], args["twins"],
                        args["arch"], args["params"], args["vocab"], args["sample_graphs"])


def test_screen_check_accepts_program_output(screened):
    _check_screen(screened)


def test_dense_reference_agrees_with_the_program_on_a_random_graph():
    from hwgnn.synth import random_graph_tensors

    rng = np.random.default_rng(5)
    t = random_graph_tensors(rng, 40, 6, avg_degree=3.0)
    model = graph2vec.build_model({"in_dim": 6, "readout": "mean", "activation": "tanh"}, seed=1)
    params = {p.name: p.data for p in model.params()}
    graph = {"nodes": [{"id": i, "label": f"L{int(np.argmax(row))}"} for i, row in enumerate(t.X)],
             "edges": [{"src": s, "dst": d} for s, d in t.A]}
    ref = checks.reference_embedding(model.arch, params, [f"L{i}" for i in range(6)], graph)
    got = graph2vec.embed(model, t).data.reshape(-1)
    assert np.allclose(ref, got, rtol=1e-10, atol=1e-12)


def test_screen_check_rejects_a_perturbed_embedding(screened):
    twin, base = next(iter(screened["twins"].items()))
    for name, match in ((twin, "from its base"), (base, "from its base|dense reference")):
        emb = dict(screened["emb"])
        emb[name] = emb[name] + 1e-4
        with pytest.raises(checks.CheckError, match=match):
            _check_screen(screened, emb=emb)


def test_screen_check_rejects_a_flipped_verdict(screened):
    verdicts = dict(screened["verdicts"])
    name = screened["designs"][0]
    verdicts[name] = "Trojan" if verdicts[name] == "Non_Trojan" else "Non_Trojan"
    with pytest.raises(checks.CheckError, match="reference head"):
        _check_screen(screened, verdicts=verdicts)


# --- training checks ---

def _manifest(corpus: str) -> dict:
    return json.loads((ROOT / "corpus" / corpus / "labels.json").read_text())


def _ht_report(manifest: dict) -> dict:
    """A perfect report over 12 held-out designs, as train-ht writes it."""
    names = random.Random(0).sample(sorted(manifest), 12)
    items = [{"graph_id": n, "label": manifest[n]["label"], "prediction": manifest[n]["label"]}
             for n in names]
    return {"metrics": {"f1": 1.0}, "per_item": items}


def test_ht_check_accepts_a_correct_report():
    m = _manifest("ht")
    assert checks.check_ht_report(_ht_report(m), m) == 1.0


def test_ht_check_rejects_a_wrong_held_out_label():
    m = _manifest("ht")
    report = _ht_report(m)
    item = report["per_item"][0]
    item["label"] = item["prediction"] = "Trojan" if item["label"] == "Non_Trojan" else "Non_Trojan"
    with pytest.raises(checks.CheckError, match="manifest"):
        checks.check_ht_report(report, m)


def test_ht_check_rejects_flipped_verdicts():
    m = _manifest("ht")
    report = _ht_report(m)
    item = report["per_item"][0]
    item["prediction"] = "Trojan" if item["label"] == "Non_Trojan" else "Non_Trojan"
    with pytest.raises(checks.CheckError, match="disagrees with recount"):
        checks.check_ht_report(report, m)
    for item in report["per_item"][:4]:
        item["prediction"] = "Trojan" if item["label"] == "Non_Trojan" else "Non_Trojan"
    truth = [it["label"] == "Trojan" for it in report["per_item"]]
    report["metrics"]["f1"] = checks.f1_score(truth, [it["prediction"] == "Trojan"
                                                      for it in report["per_item"]])
    with pytest.raises(checks.CheckError, match="below"):
        checks.check_ht_report(report, m)


def _ip_report(manifest: dict, delta: float = 0.5) -> dict:
    names = random.Random(1).sample(sorted(manifest), 8)
    items = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            same = manifest[a]["category"] == manifest[b]["category"]
            sim = 0.9 if same else 0.1
            items.append({"first": a, "second": b, "label": 1 if same else -1,
                          "similarity": sim, "prediction": "Piracy" if sim > delta else "Non_Piracy"})
    return {"per_item": items}


def test_ip_check_accepts_a_correct_report():
    m = _manifest("ip")
    assert checks.check_ip_report(_ip_report(m), m, 0.5) == 1.0


def test_ip_check_rejects_a_wrong_held_out_label():
    m = _manifest("ip")
    report = _ip_report(m)
    report["per_item"][3]["label"] *= -1
    with pytest.raises(checks.CheckError, match="manifest says"):
        checks.check_ip_report(report, m, 0.5)


def test_ip_check_rejects_a_verdict_that_breaks_the_delta_rule():
    m = _manifest("ip")
    report = _ip_report(m)
    item = report["per_item"][5]
    item["prediction"] = "Piracy" if item["prediction"] == "Non_Piracy" else "Non_Piracy"
    with pytest.raises(checks.CheckError, match="vs delta"):
        checks.check_ip_report(report, m, 0.5)


def test_ip_check_rejects_low_accuracy():
    m = _manifest("ip")
    report = _ip_report(m)
    for item in report["per_item"][:4]:
        item["similarity"] = 1.0 - item["similarity"]
        item["prediction"] = "Piracy" if item["similarity"] > 0.5 else "Non_Piracy"
    with pytest.raises(checks.CheckError, match="accuracy"):
        checks.check_ip_report(report, m, 0.5)


# --- declared metrics ---

def test_traced_run_reports_exactly_the_declared_per_layer_metrics(tmp_path):
    import spans

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    assert names == spans.metric_names()
    reported = set(spans.Tracer(tmp_path).report()) | set(spans.probes(0, reps=1))
    assert reported | {"trace.overhead_s"} == set(names)
