"""Graph embedding model: conv stack, attention top-k pooling, readout,
and the two task heads (2-class classifier, Siamese cosine), for a batch
of graphs on one tape; one graph is a batch of one."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nncore as nc
from . import settings
from .errors import EmptyPoolError, ShapeMismatchError, WrongHeadError

# in_dim is None here: it is filled from the vocabulary
DEFAULT_ARCH = {name: s.default for name, s in settings.ARCH.items()}


@dataclass
class GraphAdj:
    """Message-passing index arrays: node dst receives the mean of its
    neighborhood (undirected by default, deduplicated, self-loops once)."""

    n: int
    msg_src: np.ndarray
    msg_dst: np.ndarray
    inv_deg: np.ndarray  # n x 1, zero rows for isolated nodes


def build_adjacency(n: int, edges, directed: bool) -> GraphAdj:
    """Edge (s, d) sends d's features to s, and s's to d unless directed.
    Messages run receiver-major, senders ascending, each pair once."""
    E = np.asarray(edges, dtype=np.intp).reshape(len(edges), 2)
    if E.size and (E.min() < 0 or E.max() >= n):
        raise ShapeMismatchError(f"edge endpoint out of range for {n} nodes")
    recv, send = E[:, 0], E[:, 1]
    if not directed:
        recv, send = np.concatenate((recv, send)), np.concatenate((send, recv))
    # np.unique by hand: np.unique imports numpy.ma, a megabyte of memory
    keys = np.sort(recv * n + send)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    dst, src = np.divmod(keys[first], n)
    deg = np.bincount(dst, minlength=n)
    inv = np.zeros((n, 1))
    inv[deg > 0, 0] = 1.0 / deg[deg > 0]
    return GraphAdj(n, src, dst, inv)


class ConvLayer:
    """h'_v = act(W_self h_v + W_neigh mean_{u in N(v)} h_u + bias)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str, rng, name: str):
        settings.ARCH["activation"].check(activation)
        bound = math.sqrt(6.0 / (in_dim + out_dim))
        self.W_self = nc.Parameter(rng.uniform(-bound, bound, (in_dim, out_dim)), f"{name}.W_self")
        self.W_neigh = nc.Parameter(rng.uniform(-bound, bound, (in_dim, out_dim)), f"{name}.W_neigh")
        self.bias = nc.Parameter(np.zeros((1, out_dim)), f"{name}.bias")
        self.activation = activation

    def params(self) -> list[nc.Parameter]:
        return [self.W_self, self.W_neigh, self.bias]

    def forward(self, X: nc.Tensor, adj: GraphAdj) -> nc.Tensor:
        return nc.graph_conv(X, self.W_self, self.W_neigh, self.bias, adj, self.activation)


class Mlp:
    def __init__(self, in_dim: int, hidden: list[int], out_dim: int, rng, name: str):
        dims = [in_dim] + list(hidden) + [out_dim]
        self.weights: list[nc.Parameter] = []
        self.biases: list[nc.Parameter] = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            bound = math.sqrt(6.0 / (a + b))
            self.weights.append(nc.Parameter(rng.uniform(-bound, bound, (a, b)), f"{name}.W{i}"))
            self.biases.append(nc.Parameter(np.zeros((1, b)), f"{name}.b{i}"))

    def params(self) -> list[nc.Parameter]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, x: nc.Tensor) -> nc.Tensor:
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            x = nc.dense(x, W, b, "identity" if i == last else "relu")
        return x


@dataclass
class GnnModel:
    arch: dict
    conv_stack: list[ConvLayer]
    scorer: ConvLayer  # out_dim 1, identity activation: raw pooling scores
    mlp: Mlp | None  # classifier head only
    vocab_fingerprint: str = ""

    def params(self) -> list[nc.Parameter]:
        out: list[nc.Parameter] = []
        for layer in self.conv_stack:
            out.extend(layer.params())
        out.extend(self.scorer.params())
        if self.mlp is not None:
            out.extend(self.mlp.params())
        return out


def check_arch(arch: dict) -> dict:
    """DEFAULT_ARCH overlaid with ``arch``, every value checked by its
    declaration in ``settings``; raises ValueError naming the first bad key."""
    cfg = settings.check(settings.ARCH, arch, "architecture")
    if cfg["in_dim"] is None:
        raise ValueError("arch requires in_dim (vocabulary size)")
    return {**cfg, "conv_dims": list(cfg["conv_dims"]), "mlp_hidden": list(cfg["mlp_hidden"])}


def build_model(arch: dict, seed: int, vocab_fingerprint: str = "") -> GnnModel:
    cfg = check_arch(arch)
    rng = np.random.default_rng(seed)
    dims = [cfg["in_dim"]] + cfg["conv_dims"]
    conv_stack = [
        ConvLayer(a, b, cfg["activation"], rng, f"conv{i}")
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:]))
    ]
    scorer = ConvLayer(dims[-1], 1, "identity", rng, "pool.scorer")
    mlp = None
    if cfg["head"] == "classifier":
        mlp = Mlp(dims[-1], cfg["mlp_hidden"], 2, rng, "mlp")
    return GnnModel(
        arch=cfg,
        conv_stack=conv_stack,
        scorer=scorer,
        mlp=mlp,
        vocab_fingerprint=vocab_fingerprint,
    )


@dataclass
class GraphBatch:
    """The disjoint union of graphs: stacked feature rows, message arrays
    offset per graph, and each graph's node count (graph g holds the rows
    after those of graphs 0..g-1)."""

    X: np.ndarray
    adj: GraphAdj
    sizes: np.ndarray

    @classmethod
    def of(cls, graphs: list, directed: bool) -> GraphBatch:
        """One batch of ``graphs`` (GraphTensors), joined from each graph's
        kept message arrays."""
        if not graphs:
            raise EmptyPoolError("cannot batch zero graphs")
        if len({t.X.shape[1] for t in graphs}) != 1:
            raise ShapeMismatchError("graphs of one batch need one feature width")
        adjs = [_adjacency(t, directed) for t in graphs]
        sizes = np.array([a.n for a in adjs], dtype=np.intp)
        offsets = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        src = np.concatenate([a.msg_src + o for a, o in zip(adjs, offsets)])
        dst = np.concatenate([a.msg_dst + o for a, o in zip(adjs, offsets)])
        adj = GraphAdj(n, src, dst, np.vstack([a.inv_deg for a in adjs]))
        return cls(np.vstack([t.X for t in graphs]), adj, sizes)


def _adjacency(tensors, directed: bool) -> GraphAdj:
    """The graph's message arrays, built on first use and kept on it."""
    adj = tensors.adjacency.get(directed)
    if adj is None:
        adj = tensors.adjacency[directed] = build_adjacency(len(tensors.X), tensors.A, directed)
    return adj


# --- model stages ---

def topk_filter(values, pr: float, sizes: np.ndarray):
    """Per graph of node counts ``sizes``, the k_g = ceil(pr*n_g) highest
    of the scores ``values`` (k_g >= 1), ties broken by lower node id: the
    kept indices ascending, and each one's graph."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if (sizes < 1).any():
        raise EmptyPoolError("cannot pool an empty graph")
    if values.size != sizes.sum():
        raise ShapeMismatchError(f"{values.size} scores for {sizes.sum()} nodes")
    k = np.maximum(1, np.ceil(pr * sizes).astype(np.intp))
    graph = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((np.arange(values.size), -values, graph))
    # order lists graph 0's nodes first, then graph 1's, ...
    rank = np.arange(values.size) - (np.cumsum(sizes) - sizes)[graph]
    return np.sort(order[rank < k[graph]]), np.repeat(np.arange(sizes.size), k)


def pool_graph(X_prop: nc.Tensor, alpha: nc.Tensor, P, readout: str,
               segment: np.ndarray) -> nc.Tensor:
    """Gate rows by tanh(score), keep rows P, and sum or average them: one
    row per graph, with ``segment`` the graph of each kept row."""
    keep = np.asarray(P, dtype=np.intp)
    if keep.size == 0:
        raise EmptyPoolError("readout over zero rows")
    return nc.gate_pool(X_prop, alpha, keep, readout, segment)


def _propagate(model: GnnModel, X: nc.Tensor, adj: GraphAdj):
    for layer in model.conv_stack:
        X = layer.forward(X, adj)
    return X, model.scorer.forward(X, adj)


def embed(model: GnnModel, tensors) -> nc.Tensor:
    """embed_batch of the one-graph batch: one row out."""
    return embed_batch(model, GraphBatch.of([tensors], model.arch["directed_messages"]))


def embed_batch(model: GnnModel, batch: GraphBatch) -> nc.Tensor:
    """conv stack -> score -> top-k -> gated pool and readout, for every
    graph of a batch on one tape: one row per graph."""
    X, alpha = _propagate(model, nc.constant(batch.X), batch.adj)
    keep, segment = topk_filter(alpha.data, model.arch["pooling_ratio"], batch.sizes)
    return pool_graph(X, alpha, keep, model.arch["readout"], segment)


def classify(model: GnnModel, h_g: nc.Tensor) -> nc.Tensor:
    """Class probabilities [Trojan, Non_Trojan], one row per embedding row."""
    if model.mlp is None:
        raise WrongHeadError("model has no classifier head")
    return nc.softmax_rows(model.mlp.forward(h_g))


def pair_similarity(model: GnnModel, H: nc.Tensor, first: np.ndarray,
                    second: np.ndarray) -> nc.Tensor:
    """P x 1: the similarity of embedding rows first[i] and second[i]."""
    if model.arch["head"] != "siamese":
        raise WrongHeadError("model has no Siamese head")
    return nc.pair_cosine(H, first, second)
