"""Trainers, decision rules, metrics, checkpoints, and exports."""
from __future__ import annotations

import copy
import functools
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import nncore as nc
from . import settings
from .errors import (
    BadLabelError,
    CorruptFileError,
    DivergenceError,
    NonFiniteError,
    VersionMismatchError,
    VocabMismatchError,
)
from .graph2vec import (
    GnnModel,
    GraphBatch,
    build_model,
    classify,
    embed,
    embed_batch,
    pair_similarity,
)
from .graphdata import GraphPair, GraphTensors
from .nncore import contrastive_loss, cross_entropy

TROJAN = "Trojan"
NON_TROJAN = "Non_Trojan"
PIRACY = "Piracy"
NON_PIRACY = "Non_Piracy"


class TrainConfig:
    """Training hyper-parameters: every key under ``train:`` plus ``seed``,
    each defaulted and checked by its declaration in ``settings``."""

    def __init__(self, **values):
        fields = {**settings.TRAIN, "seed": settings.TOP["seed"]}
        vars(self).update(settings.check(fields, values, "train"))

    def arch(self, in_dim: int, head: str) -> dict:
        model = {name: copy.copy(getattr(self, name)) for name in settings.MODEL}
        return {"in_dim": in_dim, "head": head, **model}


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    degenerate: bool = False
    per_item: list = field(default_factory=list)


@dataclass
class Checkpoint:
    model: GnnModel
    best_metric: float
    best_step: int = 0
    history: list = field(default_factory=list)
    steps: int = 0  # optimizer steps taken
    stop: str = "epochs"  # or "ceiling": a validation scored 1.0

    def training(self) -> dict:
        """The run's course, as report.json records it."""
        return {"best_step": self.best_step, "steps": self.steps, "stop": self.stop,
                "history": self.history}


# --- decision rules ---

def _check_dims(model: GnnModel, tensors: GraphTensors) -> None:
    want = model.arch["in_dim"]
    if tensors.X.shape[1] != want:
        raise VocabMismatchError(
            f"graph {tensors.graph_id!r} encoded with {tensors.X.shape[1]} labels, "
            f"model expects {want}; re-encode with the model's vocabulary"
        )


def _ht_verdict(y: np.ndarray) -> str:
    """Trojan when its probability y[0] beats Non_Trojan's y[1]."""
    return TROJAN if y[0] > y[1] else NON_TROJAN


def _forward_only(evaluate):
    """``evaluate`` run without a tape: nothing calls backward() on it."""
    @functools.wraps(evaluate)
    def run(*args, **kwargs):
        with nc.no_tape():
            return evaluate(*args, **kwargs)
    return run


@_forward_only
def predict_ht(model: GnnModel, tensors: GraphTensors) -> str:
    _check_dims(model, tensors)
    return _ht_verdict(classify(model, embed(model, tensors)).data[0])


@_forward_only
def pair_similarity_value(model: GnnModel, t1: GraphTensors, t2: GraphTensors) -> float:
    """The similarity that evaluate_pairs reports for the pair (t1, t2)."""
    H, rows = _embed_rows(model, [t1, t2])
    return pair_similarity(model, H, rows[:1], rows[1:]).item()


def piracy_verdict(similarity: float, delta: float) -> str:
    """The piracy rule: a similarity above ``delta`` means Piracy."""
    return PIRACY if similarity > delta else NON_PIRACY


def predict_piracy(model: GnnModel, t1: GraphTensors, t2: GraphTensors, delta: float) -> str:
    return piracy_verdict(pair_similarity_value(model, t1, t2), delta)


# --- metrics ---

def compute_metrics(tp: int, fp: int, fn: int, tn: int, per_item=None) -> EvalReport:
    degenerate = False

    def ratio(num: float, den: float) -> float:
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    accuracy = ratio(tp + tn, tp + fp + fn + tn)
    return EvalReport(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        degenerate=degenerate,
        per_item=list(per_item) if per_item else [],
    )


def report_to_json(report: EvalReport, training: dict | None = None) -> str:
    doc = {
        "counts": {"tp": report.tp, "fp": report.fp, "fn": report.fn, "tn": report.tn},
        "metrics": {
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "accuracy": report.accuracy,
            "degenerate": report.degenerate,
        },
        "per_item": report.per_item,
    }
    if training is not None:
        doc["training"] = training
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# --- evaluation ---

def _onehot(label) -> np.ndarray:
    if label == TROJAN or label == 1:
        return np.array([[1.0, 0.0]])
    if label == NON_TROJAN or label == 0:
        return np.array([[0.0, 1.0]])
    raise BadLabelError(f"classifier label must be {TROJAN!r} or {NON_TROJAN!r}, got {label!r}")


def is_trojan(label) -> bool:
    """True for a Trojan label; raises BadLabelError for an unknown one."""
    return bool(_onehot(label)[0, 0] == 1.0)


def _tally(outcomes: list[tuple[bool, bool]], per_item: list) -> EvalReport:
    """Metrics over (predicted positive, truly positive) outcomes."""
    counts = Counter(outcomes)
    return compute_metrics(
        counts[True, True], counts[True, False], counts[False, True], counts[False, False],
        per_item,
    )


def _distinct(graphs: list[GraphTensors]) -> tuple[list[GraphTensors], np.ndarray]:
    """The graphs of distinct content, in order of first appearance, and
    the row of each input graph among them."""
    rows: dict[str, int] = {}
    firsts = []
    for t in graphs:
        if rows.setdefault(t.content_key, len(rows)) == len(firsts):
            firsts.append(t)
    return firsts, np.array([rows[t.content_key] for t in graphs], dtype=np.intp)


def _embed_rows(model: GnnModel, graphs: list[GraphTensors]) -> tuple[nc.Tensor, np.ndarray]:
    """One batch forward pass over the distinct graphs among ``graphs``:
    the embedding matrix, and each input graph's row in it."""
    for t in graphs:
        _check_dims(model, t)
    firsts, rows = _distinct(graphs)
    return embed_batch(model, GraphBatch.of(firsts, model.arch["directed_messages"])), rows


@_forward_only
def evaluate_classifier(model: GnnModel, dataset: list[GraphTensors]) -> EvalReport:
    outcomes, per_item = [], []
    if dataset:
        H, rows = _embed_rows(model, dataset)
        probs = classify(model, H).data[rows]
    for t, y in zip(dataset, probs if dataset else []):
        verdict = _ht_verdict(y)
        outcomes.append((verdict == TROJAN, is_trojan(t.label)))
        per_item.append({"graph_id": t.graph_id, "label": t.label, "prediction": verdict})
    return _tally(outcomes, per_item)


def _pair_rows(model: GnnModel, pairs: list[GraphPair], tensors_by_id: dict[str, GraphTensors]):
    """The embedding matrix of the pairs' distinct graphs, and the row of
    each pair's first and second member in it."""
    H, rows = _embed_rows(model, [tensors_by_id[name] for pair in pairs
                                  for name in (pair.first, pair.second)])
    return H, rows[0::2], rows[1::2]


@_forward_only
def evaluate_pairs(model: GnnModel, pairs: list[GraphPair],
                   tensors_by_id: dict[str, GraphTensors], delta: float) -> EvalReport:
    outcomes, per_item = [], []
    sims = []
    if pairs:
        sims = pair_similarity(model, *_pair_rows(model, pairs, tensors_by_id)).data[:, 0]
    for pair, sim in zip(pairs, map(float, sims)):
        verdict = piracy_verdict(sim, delta)
        outcomes.append((verdict == PIRACY, pair.label == 1))
        per_item.append({"first": pair.first, "second": pair.second, "label": pair.label,
                         "similarity": sim, "prediction": verdict})
    return _tally(outcomes, per_item)


# --- training ---

def _shuffled_forever(items: list, rng):
    """Endless deterministic sampler: shuffle, drain, reshuffle."""
    while True:
        for i in rng.permutation(len(items))[::-1]:
            yield items[i]


_CEILING = 1.0  # the best F1 or accuracy a validation can score


def _fit(model: GnnModel, cfg: TrainConfig, n_train: int, next_batch, batch_loss,
         metric_name: str, metric) -> Checkpoint:
    """The loop both trainers share.  Each step takes ``batch_loss`` of
    ``next_batch()``, one tape over the step's items, and one optimizer
    step; ``metric()`` is scored before training, every
    ``mini_test_interval`` steps and at the end, and
    the parameters of the first best score are restored.  Training stops at
    the first score of 1.0: no later score can beat it, so the rest of the
    run could change neither the restored parameters nor ``best_metric``."""
    params = model.params()
    adam = nc.Adam(params, lr=cfg.lr) if cfg.optimizer == "adam" else None
    history: list[dict] = []
    best_metric, best_step, best_snap = -math.inf, 0, None

    def validate(step: int) -> None:
        nonlocal best_metric, best_step, best_snap
        value = metric()
        history.append({"step": step, metric_name: value})
        if best_snap is None or value > best_metric:
            best_metric, best_step, best_snap = value, step, [p.data.copy() for p in params]

    validate(0)
    step = 0
    last_finite = math.inf
    try:
        steps = cfg.epochs * max(1, math.ceil(n_train / cfg.batch_size))
        while step < steps and best_metric < _CEILING:
            nc.zero_grads(params)
            loss = batch_loss(next_batch())
            last_finite = float(loss.data[0, 0])
            nc.backward(loss)
            if adam is not None:
                adam.step()
            else:
                nc.sgd_step(params, cfg.lr)
            step += 1
            if step % cfg.mini_test_interval == 0:
                validate(step)
        if best_metric < _CEILING:
            validate(step)
    except NonFiniteError as exc:
        # blown-up weights surface as Inf in the next forward pass, well
        # before the loss tensor itself could ever hold a NaN
        raise DivergenceError(step, last_finite) from exc
    for p, data in zip(params, best_snap):
        p.data[...] = data
    return Checkpoint(model=model, best_metric=best_metric, best_step=best_step, history=history,
                      steps=step, stop="ceiling" if best_metric >= _CEILING else "epochs")


def train_graph_classifier(
    train: list[GraphTensors],
    val: list[GraphTensors],
    cfg: TrainConfig,
    vocab_fingerprint: str = "",
) -> Checkpoint:
    """Minimize cross-entropy summed over each batch's items, every distinct
    graph of a batch embedded once; keep the parameters that score the best
    validation F1 across the initial, periodic, and final evaluations."""
    if not train or not val:
        raise ValueError("train and validation sets must both be nonempty")
    model = build_model(cfg.arch(train[0].X.shape[1], "classifier"), seed=cfg.seed,
                        vocab_fingerprint=vocab_fingerprint)
    stream = _shuffled_forever(train, np.random.default_rng(cfg.seed))

    def batch_loss(batch: list[GraphTensors]) -> nc.Tensor:
        H, rows = _embed_rows(model, batch)
        Y = np.zeros((H.rows, 2))  # per distinct graph, its items per class
        np.add.at(Y, rows, np.vstack([_onehot(t.label) for t in batch]))
        return cross_entropy(classify(model, H), Y)

    return _fit(
        model, cfg, len(train),
        next_batch=lambda: list(islice(stream, min(cfg.batch_size, len(train)))),
        batch_loss=batch_loss,
        metric_name="f1",
        metric=lambda: evaluate_classifier(model, val).f1,
    )


def train_pair_model(
    train_pairs: list[GraphPair],
    val_pairs: list[GraphPair],
    tensors_by_id: dict[str, GraphTensors],
    cfg: TrainConfig,
    vocab_fingerprint: str = "",
) -> Checkpoint:
    """Siamese training on Eq-style contrastive loss summed over each
    batch's pairs, every distinct graph of a batch embedded once; batches
    draw a balanced half from each pair polarity when both exist."""
    if not train_pairs or not val_pairs:
        raise ValueError("train and validation pair sets must both be nonempty")
    in_dim = tensors_by_id[train_pairs[0].first].X.shape[1]
    model = build_model(cfg.arch(in_dim, "siamese"), seed=cfg.seed,
                        vocab_fingerprint=vocab_fingerprint)
    rng = np.random.default_rng(cfg.seed)
    positives = [p for p in train_pairs if p.label == 1]
    negatives = [p for p in train_pairs if p.label == -1]
    if positives and negatives:
        half = max(1, cfg.batch_size // 2)
        draws = [(_shuffled_forever(positives, rng), half),
                 (_shuffled_forever(negatives, rng), cfg.batch_size - half)]
    else:
        draws = [(_shuffled_forever(train_pairs, rng), min(cfg.batch_size, len(train_pairs)))]

    def batch_loss(batch: list[GraphPair]) -> nc.Tensor:
        sims = pair_similarity(model, *_pair_rows(model, batch, tensors_by_id))
        return contrastive_loss(sims, [pair.label for pair in batch], cfg.margin)

    return _fit(
        model, cfg, len(train_pairs),
        next_batch=lambda: [pair for stream, k in draws for pair in islice(stream, k)],
        batch_loss=batch_loss,
        metric_name="accuracy",
        metric=lambda: evaluate_pairs(model, val_pairs, tensors_by_id, cfg.delta).accuracy,
    )


# --- checkpoint file format ---

_CKPT_MAGIC = b"HWGNNCK\x00"
CKPT_VERSION = 1


def save_checkpoint(ckpt: Checkpoint | GnnModel, path: Path) -> None:
    model = ckpt.model if isinstance(ckpt, Checkpoint) else ckpt
    best = ckpt.best_metric if isinstance(ckpt, Checkpoint) else None
    params = model.params()
    header = {
        "vocab_fingerprint": model.vocab_fingerprint,
        "arch": model.arch,
        "best_metric": best if best is None or math.isfinite(best) else None,
        "params": [
            {"name": p.name, "rows": p.rows, "cols": p.cols} for p in params
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += _CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for p in params:
        blob += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: Path, vocab_fingerprint: str | None = None) -> Checkpoint:
    blob = Path(path).read_bytes()
    base = len(_CKPT_MAGIC)
    if len(blob) < base + 12 or not blob.startswith(_CKPT_MAGIC):
        raise CorruptFileError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, base)
    if version != CKPT_VERSION:
        raise VersionMismatchError(
            f"{path}: checkpoint format {version}, this build reads {CKPT_VERSION}"
        )
    (header_len,) = struct.unpack_from("<Q", blob, base + 4)
    offset = base + 12
    if len(blob) < offset + header_len:
        raise CorruptFileError(f"{path}: truncated header")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFileError(f"{path}: unreadable header: {exc}") from None
    offset += header_len
    if not isinstance(header, dict) or not isinstance(header.get("vocab_fingerprint"), str):
        raise CorruptFileError(f"{path}: header lacks the vocabulary fingerprint")
    stored_fp = header["vocab_fingerprint"]
    if vocab_fingerprint is not None and vocab_fingerprint != stored_fp:
        raise VocabMismatchError(
            f"{path}: checkpoint built for vocabulary {stored_fp[:12]}..., "
            f"requested {vocab_fingerprint[:12]}...; re-encode the graphs with "
            f"the vocabulary file saved next to this checkpoint"
        )
    try:
        model = build_model(header.get("arch"), seed=0, vocab_fingerprint=stored_fp)
    except ValueError as exc:
        raise CorruptFileError(f"{path}: bad architecture: {exc}") from None
    params = model.params()
    specs = header.get("params")
    if not isinstance(specs, list) or [
        s.get("name") if isinstance(s, dict) else None for s in specs
    ] != [p.name for p in params]:
        raise CorruptFileError(f"{path}: parameter list does not match the architecture")
    for p, spec in zip(params, specs):
        if (p.rows, p.cols) != (spec.get("rows"), spec.get("cols")):
            raise CorruptFileError(f"{path}: shape mismatch for {p.name}")
        size = p.data.size * 8
        if len(blob) < offset + size:
            raise CorruptFileError(f"{path}: truncated parameter block {p.name}")
        p.data[...] = np.frombuffer(blob, dtype="<f8", count=p.data.size, offset=offset).reshape(
            p.data.shape
        )
        offset += size
    if offset != len(blob):
        raise CorruptFileError(f"{path}: {len(blob) - offset} trailing bytes")
    best = header.get("best_metric")
    if best is not None and (not isinstance(best, (int, float)) or isinstance(best, bool)):
        raise CorruptFileError(f"{path}: best_metric is not a number")
    return Checkpoint(model=model, best_metric=math.nan if best is None else float(best))


# --- embedding export ---

@_forward_only
def export_embeddings(model: GnnModel, dataset: list[GraphTensors], path: Path) -> None:
    """TSV: header line, then one row per graph (id, label, components)."""
    dim = model.arch["conv_dims"][-1]
    lines = ["graph_id\tlabel\t" + "\t".join(f"e{i}" for i in range(dim))]
    for t in dataset:
        h = embed(model, t).data.reshape(-1)
        label = "" if t.label is None else str(t.label)
        # repr(float) round-trips exactly, so a re-export is byte-identical
        lines.append(t.graph_id + "\t" + label + "\t" + "\t".join(repr(float(x)) for x in h))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
