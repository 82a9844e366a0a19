"""Dataset handling: label normalization, vocabularies, one-hot encoding,
splits, graph pairs, and a content-addressed disk cache."""
from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from . import settings
from .errors import (
    CacheCorruptError,
    CorruptFileError,
    DegenerateSplitError,
    EmptyCorpusError,
    ShapeMismatchError,
    UnknownCircuitError,
    UnknownLabelError,
)
from .hwgraph import AST_LABELS, DFG, DFG_LABELS, GraphNode, HWGraph
from .hwgraph.source import SourceUnit, read_text


@dataclass
class NodeVocab:
    labels: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if sorted(self.labels) != self.labels or len(set(self.labels)) != len(self.labels):
            raise ValueError("vocabulary must be sorted and duplicate-free")
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(_vocab_bytes(self.labels)).hexdigest()


@dataclass
class GraphTensors:
    X: np.ndarray  # |V| x d one-hot rows
    A: np.ndarray  # m x 2 edges (src, dst), stored as C-contiguous <i8
    graph_id: str
    label: object = None
    # graph2vec.embed's message arrays by directed_messages, built on first
    # use: A must not change after the first embed
    adjacency: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _content_key: str | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def content_key(self) -> str:
        """sha256 of the encoded graph (X's shape and bytes, then A's),
        computed on first use: designs that encode alike share it."""
        if self._content_key is None:
            X = np.ascontiguousarray(self.X, dtype="<f8")
            h = hashlib.sha256(struct.pack("<QQ", *X.shape))
            h.update(X.tobytes())
            h.update(self.A.tobytes())
            self._content_key = h.hexdigest()
        return self._content_key

    def __post_init__(self) -> None:
        try:
            A = np.asarray(self.A) if len(self.A) else np.empty((0, 2), dtype="<i8")
        except (TypeError, ValueError):  # no length, or ragged rows
            A = np.empty(0)
        if A.ndim != 2 or A.shape[1] != 2 or A.dtype.kind not in "iu":
            raise ShapeMismatchError(f"edges of {self.graph_id!r} must be m x 2 integers")
        self.A = np.ascontiguousarray(A, dtype="<i8")


@dataclass
class GraphPair:
    first: str
    second: str
    label: int  # +1 Similar, -1 Dissimilar

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("pair members must differ")
        if self.label not in (1, -1):
            raise ValueError(f"pair label must be +1 or -1, got {self.label}")


@dataclass
class DatasetSplit:
    train: list
    test: list


def normalize(g: HWGraph) -> HWGraph:
    """Drop node names, keep structure, and verify every label belongs to
    the graph kind's fixed vocabulary."""
    allowed = DFG_LABELS if g.kind == DFG else AST_LABELS
    nodes = []
    for n in g.nodes:
        if n.label not in allowed:
            raise UnknownLabelError(f"label {n.label!r} not in the {g.kind} label set")
        nodes.append(GraphNode(n.id, n.label, None))
    return HWGraph(kind=g.kind, nodes=nodes, edges=list(g.edges), design_name=g.design_name)


def build_vocab(graphs: list[HWGraph]) -> NodeVocab:
    if not graphs:
        raise EmptyCorpusError("cannot build a vocabulary from zero graphs")
    labels: set[str] = set()
    for g in graphs:
        labels.update(n.label for n in g.nodes)
    return NodeVocab(sorted(labels))


def encode(g: HWGraph, vocab: NodeVocab, label=None) -> GraphTensors:
    X = np.zeros((len(g.nodes), len(vocab)))
    for n in g.nodes:
        col = vocab.index.get(n.label)
        if col is None:
            raise UnknownLabelError(f"label {n.label!r} missing from the vocabulary")
        X[n.id, col] = 1.0
    return GraphTensors(X=X, A=g.edges, graph_id=g.design_name, label=label)


def split(ids: list, ratio: float, seed: int) -> DatasetSplit:
    try:
        settings.TOP["ratio"].check(ratio)
    except ValueError as exc:
        raise DegenerateSplitError(str(exc)) from None
    if len(ids) < 2:
        raise DegenerateSplitError("need at least 2 items to split")
    n_test = round(ratio * len(ids))
    if n_test == 0 or n_test == len(ids):
        raise DegenerateSplitError(
            f"ratio {ratio} over {len(ids)} items leaves one side empty"
        )
    perm = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    return DatasetSplit(train=shuffled[n_test:], test=shuffled[:n_test])


def leave_one_circuit_out(ids: list, circuit_of: dict, held_out) -> DatasetSplit:
    if held_out not in set(circuit_of.get(i) for i in ids):
        raise UnknownCircuitError(f"no item belongs to circuit {held_out!r}")
    test = [i for i in ids if circuit_of.get(i) == held_out]
    train = [i for i in ids if circuit_of.get(i) != held_out]
    return DatasetSplit(train=train, test=test)


def make_pairs(ids: list, category_of: dict) -> list[GraphPair]:
    return [
        GraphPair(a, b, 1 if category_of[a] == category_of[b] else -1)
        for a, b in combinations(ids, 2)
    ]


# --- vocabulary persistence ---

def _vocab_bytes(labels: list[str]) -> bytes:
    return "".join(f"{lab}\n" for lab in labels).encode("utf-8")


def save_vocab(vocab: NodeVocab, path: Path) -> None:
    path.write_bytes(_vocab_bytes(vocab.labels))


def load_vocab(path: Path) -> NodeVocab:
    """The vocabulary saved at ``path``; a file that is not UTF-8, or whose
    lines are unsorted or repeat, raises a typed error naming it."""
    try:
        return NodeVocab(read_text(path).splitlines())
    except ValueError as exc:
        raise CorruptFileError(f"{path}: {exc}") from None


# --- disk cache ---

_CACHE_MAGIC = b"HWGT\x01"


# Bump when hw2graph, normalize or encode gives other output for the same
# sources: keys then change, so entries stored under the old value miss
# (tests/test_extractor_version.py pins the extraction output per value).
EXTRACTOR_VERSION = 1


def _framed(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


def cache_key(root: Path, design: SourceUnit, kind: str, top: str | None,
              vocab: NodeVocab) -> str:
    """Hash of every input that extraction and encoding read, so a hit
    needs no extraction: the extractor version, the design name (the name
    ``root`` resolves to; a hit returns it as graph_id), kind, top, the
    vocabulary fingerprint, and each file's path relative to ``root`` with
    its text, in ``design.files`` order, every field length-prefixed."""
    root = Path(root)
    head = json.dumps([EXTRACTOR_VERSION, root.resolve().name, kind, top, vocab.fingerprint,
                       len(design.files)])
    h = hashlib.sha256(_framed(head.encode("ascii")))
    for path, text in design.files:
        h.update(_framed(path.relative_to(root).as_posix().encode("utf-8")))
        h.update(_framed(text.encode("utf-8")))
    return h.hexdigest()


def _cache_path(root: Path, key: str) -> Path:
    return Path(root) / f"{key}.gt"


def cache_put(root: Path, key: str, tensors: GraphTensors) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rows, cols = tensors.X.shape
    header = json.dumps({"graph_id": tensors.graph_id, "label": tensors.label, "rows": rows,
                         "cols": cols, "edges": len(tensors.A)}, ensure_ascii=False)
    header = header.encode("utf-8")
    x_bytes = np.ascontiguousarray(tensors.X, dtype="<f8").tobytes()
    payload = b"".join((_CACHE_MAGIC, struct.pack("<Q", len(header)), header, x_bytes,
                        tensors.A.tobytes()))
    digest = hashlib.sha256(payload).digest()
    path = _cache_path(root, key)
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(payload + digest)
    os.replace(tmp, path)
    return path


_SIZE_KEYS = ("rows", "cols", "edges")


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def cache_get(root: Path, key: str) -> GraphTensors | None:
    """Stored tensors for key, or None on a miss.

    A present-but-unreadable entry (truncation, bit rot, checksum mismatch)
    raises CacheCorrupt instead of silently recomputing.
    """
    path = _cache_path(Path(root), key)
    if not path.exists():
        return None
    blob = path.read_bytes()
    if len(blob) < len(_CACHE_MAGIC) + 8 + 32 or not blob.startswith(_CACHE_MAGIC):
        raise CacheCorruptError(f"{path}: malformed cache entry")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheCorruptError(f"{path}: checksum mismatch")
    offset = len(_CACHE_MAGIC)
    (header_len,) = struct.unpack_from("<Q", payload, offset)
    offset += 8
    if header_len > len(payload) - offset:
        raise CacheCorruptError(f"{path}: header runs past the end of the entry")
    try:
        header = json.loads(payload[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheCorruptError(f"{path}: unreadable header: {exc}") from None
    offset += header_len
    if not (isinstance(header, dict) and isinstance(header.get("graph_id"), str)
            and "label" in header and all(_is_count(header.get(k)) for k in _SIZE_KEYS)):
        raise CacheCorruptError(f"{path}: malformed header")
    rows, cols, n_edges = (header[k] for k in _SIZE_KEYS)
    x_size = rows * cols * 8
    expected = offset + x_size + n_edges * 16
    if len(payload) != expected:
        raise CacheCorruptError(f"{path}: payload length mismatch")
    X = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset)
    A = np.frombuffer(payload, dtype="<i8", count=n_edges * 2, offset=offset + x_size)
    return GraphTensors(X=X.reshape(rows, cols).copy(), A=A.reshape(n_edges, 2),
                        graph_id=header["graph_id"], label=header["label"])

