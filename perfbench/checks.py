"""Output checks of the benchmark's workloads.

Every check compares what the program wrote against ground truth or a
property of the method, never against a stored copy of earlier output, and
raises ``CheckError`` with the first discrepancy it finds.  The screening
check carries its own dense-matrix forward pass, computed from the weights
in the checkpoint file, so that it shares no code with the program's model.
"""
from __future__ import annotations

import json
import math
import struct
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np

TWIN_TOL = 1e-6  # acceptance criterion 3's bound on relabelled graphs


class CheckError(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def f1_score(truth: list[bool], predicted: list[bool]) -> float:
    tp = sum(t and p for t, p in zip(truth, predicted))
    fp = sum(p and not t for t, p in zip(truth, predicted))
    fn = sum(t and not p for t, p in zip(truth, predicted))
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


# --- training workloads ---

def check_ht_report(report: dict, manifest: dict, held_out: int = 12, min_f1: float = 0.90) -> float:
    """Held-out verdicts of train-ht scored against the label manifest."""
    items = report["per_item"]
    ids = [it["graph_id"] for it in items]
    _require(len(ids) == held_out and len(set(ids)) == held_out,
             f"expected {held_out} distinct held-out designs, got {len(ids)}")
    truth, predicted = [], []
    for it in items:
        _require(it["graph_id"] in manifest, f"unknown design {it['graph_id']!r} in report")
        label = manifest[it["graph_id"]]["label"]
        _require(it["label"] == label,
                 f"{it['graph_id']}: report gives label {it['label']!r}, manifest {label!r}")
        _require(it["prediction"] in ("Trojan", "Non_Trojan"),
                 f"{it['graph_id']}: bad verdict {it['prediction']!r}")
        truth.append(label == "Trojan")
        predicted.append(it["prediction"] == "Trojan")
    f1 = f1_score(truth, predicted)
    _require(f1 >= min_f1, f"held-out F1 {f1:.4f} below {min_f1}")
    _require(abs(report["metrics"]["f1"] - f1) < 1e-12,
             f"report F1 {report['metrics']['f1']} disagrees with recount {f1}")
    return f1


def check_ip_report(report: dict, manifest: dict, delta: float,
                    held_out_pairs: int = 28, min_accuracy: float = 0.90) -> float:
    """Held-out pair verdicts of train-ip against the manifest categories."""
    items = report["per_item"]
    _require(len(items) == held_out_pairs,
             f"expected {held_out_pairs} held-out pairs, got {len(items)}")
    designs = sorted({it["first"] for it in items} | {it["second"] for it in items})
    _require({frozenset((it["first"], it["second"])) for it in items}
             == {frozenset(p) for p in combinations(designs, 2)},
             "held-out pairs are not all pairs of the held-out designs")
    correct = 0
    for it in items:
        a, b = it["first"], it["second"]
        same = manifest[a]["category"] == manifest[b]["category"]
        _require(it["label"] == (1 if same else -1),
                 f"{a}/{b}: report gives pair label {it['label']}, manifest says {'+1' if same else '-1'}")
        rule = "Piracy" if it["similarity"] > delta else "Non_Piracy"
        _require(it["prediction"] == rule,
                 f"{a}/{b}: verdict {it['prediction']} but similarity {it['similarity']!r} vs delta {delta}")
        correct += (rule == "Piracy") == same
    accuracy = correct / len(items)
    _require(accuracy >= min_accuracy, f"held-out accuracy {accuracy:.4f} below {min_accuracy}")
    return accuracy


# --- extraction ---

def check_dfg(doc: dict, expected: dict) -> None:
    name = doc["design"]
    nodes, edges = len(doc["nodes"]), len(doc["edges"])
    _require((nodes, edges) == (expected["nodes"], expected["edges"]),
             f"{name}: DFG has {nodes} nodes/{edges} edges, walker expects "
             f"{expected['nodes']}/{expected['edges']}")
    labels = Counter(n["label"] for n in doc["nodes"])
    _require(labels == expected["labels"],
             f"{name}: DFG label multiset differs from the walker's: "
             f"extra {dict(labels - expected['labels'])}, missing {dict(expected['labels'] - labels)}")


def check_ast(doc: dict) -> None:
    """A single-root tree: |E| = |V| - 1, one parent per non-root node, and
    every node reachable from the root."""
    name, n = doc["design"], len(doc["nodes"])
    edges = [(e["src"], e["dst"]) for e in doc["edges"]]
    _require(len(edges) == n - 1, f"{name}: AST has {len(edges)} edges for {n} nodes")
    parents = Counter(d for _, d in edges)
    roots = [v for v in range(n) if parents[v] == 0]
    _require(len(roots) == 1, f"{name}: AST has {len(roots)} roots")
    _require(all(c == 1 for c in parents.values()), f"{name}: AST node with two parents")
    children: dict[int, list[int]] = {}
    for s, d in edges:
        children.setdefault(s, []).append(d)
    seen, todo = {roots[0]}, [roots[0]]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in seen:
                seen.add(c)
                todo.append(c)
    _require(len(seen) == n, f"{name}: {n - len(seen)} AST nodes unreachable from the root")


def check_twins(docs: dict, twins: dict) -> None:
    """Each twin's DFG has the counts and label multiset of its base."""
    for twin, base in twins.items():
        a, b = docs[base], docs[twin]
        same = (len(a["nodes"]) == len(b["nodes"]) and len(a["edges"]) == len(b["edges"])
                and Counter(n["label"] for n in a["nodes"]) == Counter(n["label"] for n in b["nodes"]))
        _require(same, f"{twin}: DFG differs from its base {base} in counts or labels")


def check_extract(dfg_dir: Path, ast_dir: Path, expected: dict, twins: dict) -> None:
    dfgs = {}
    for name, exp in expected.items():
        dfgs[name] = json.loads((dfg_dir / f"{name}.dfg.json").read_text(encoding="utf-8"))
        check_dfg(dfgs[name], exp)
        check_ast(json.loads((ast_dir / f"{name}.ast.json").read_text(encoding="utf-8")))
    check_twins(dfgs, twins)


# --- screening: checkpoint reader and dense reference model ---

def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(architecture, {parameter name: matrix}) from a checkpoint file:
    8-byte magic, u32 version, u64 header length, JSON header, then each
    parameter as little-endian float64 in header order."""
    blob = Path(path).read_bytes()
    _require(blob[:8] == b"HWGNNCK\x00", f"{path}: not a checkpoint")
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + header_len])
    offset = 20 + header_len
    params = {}
    for spec in header["params"]:
        count = spec["rows"] * spec["cols"]
        params[spec["name"]] = np.frombuffer(blob, "<f8", count, offset).reshape(spec["rows"], spec["cols"])
        offset += 8 * count
    _require(offset == len(blob), f"{path}: {len(blob) - offset} bytes after the parameters")
    return header["arch"], params


def _act(x: np.ndarray, name: str) -> np.ndarray:
    return {"relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh, "identity": lambda v: v}[name](x)


def reference_embedding(arch: dict, params: dict, vocab: list[str], graph: dict) -> np.ndarray:
    """Conv stack, top-k pooling on tanh-gated rows, and readout, with a dense
    row-normalized neighbour matrix."""
    n = len(graph["nodes"])
    col = {lab: i for i, lab in enumerate(vocab)}
    H = np.zeros((n, len(vocab)))
    for node in graph["nodes"]:
        H[node["id"], col[node["label"]]] = 1.0
    A = np.zeros((n, n))
    for e in graph["edges"]:
        A[e["src"], e["dst"]] = 1.0
        if not arch["directed_messages"]:
            A[e["dst"], e["src"]] = 1.0
    deg = A.sum(axis=1, keepdims=True)
    M = np.divide(A, deg, out=np.zeros_like(A), where=deg > 0)

    def conv(X, prefix, act):
        return _act(X @ params[f"{prefix}.W_self"] + (M @ X) @ params[f"{prefix}.W_neigh"]
                    + params[f"{prefix}.bias"], act)

    for i in range(len(arch["conv_dims"])):
        H = conv(H, f"conv{i}", arch["activation"])
    alpha = conv(H, "pool.scorer", "identity")[:, 0]
    k = max(1, math.ceil(arch["pooling_ratio"] * n))
    keep = np.lexsort((np.arange(n), -alpha))[:k]  # highest score, then lower id
    pooled = (H * np.tanh(alpha)[:, None])[keep]
    return pooled.sum(axis=0) if arch["readout"] == "sum" else pooled.mean(axis=0)


def reference_probs(arch: dict, params: dict, h: np.ndarray) -> np.ndarray:
    """Classifier head: ReLU MLP then softmax over [Trojan, Non_Trojan]."""
    x = h.reshape(1, -1)
    layers = len(arch["mlp_hidden"]) + 1
    for i in range(layers):
        x = x @ params[f"mlp.W{i}"] + params[f"mlp.b{i}"]
        if i < layers - 1:
            x = np.maximum(x, 0.0)
    z = np.exp(x - x.max())
    return (z / z.sum())[0]


def read_embeddings(text: str) -> dict[str, np.ndarray]:
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    return {r[0]: np.array([float(v) for v in r[2:]]) for r in rows}


def read_verdicts(text: str) -> dict[str, str]:
    return dict(line.split("\t") for line in text.splitlines() if line.strip())


def check_screen(emb: dict, verdicts: dict, designs: list[str], twins: dict,
                 arch: dict, params: dict, vocab: list[str], sample_graphs: dict) -> None:
    _require(sorted(emb) == sorted(designs), "embed did not write one row per design")
    _require(sorted(verdicts) == sorted(designs), "infer-ht did not give one verdict per design")
    for twin, base in twins.items():
        diff = float(np.abs(emb[twin] - emb[base]).max())
        _require(diff <= TWIN_TOL, f"{twin}: embedding differs from its base {base} by {diff:.3g}")
    for name, graph in sample_graphs.items():
        ref = reference_embedding(arch, params, vocab, graph)
        scale = max(1.0, float(np.abs(ref).max()))
        diff = float(np.abs(emb[name] - ref).max())
        _require(diff <= 1e-9 * scale,
                 f"{name}: embedding differs from the dense reference by {diff:.3g}")
    for name in designs:
        p = reference_probs(arch, params, emb[name])
        if abs(p[0] - p[1]) < 1e-9:
            continue  # a tie within rounding has no reliable argmax
        want = "Trojan" if p[0] > p[1] else "Non_Trojan"
        _require(verdicts[name] == want,
                 f"{name}: infer-ht says {verdicts[name]}, the reference head says {want}")
