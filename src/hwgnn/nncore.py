"""Dense float64 tensors with reverse-mode gradients.

Everything is a 2-D matrix; vectors travel as 1xd or nx1.  Each model
layer is one operation with its hand-written backward beside its forward:
graph convolution, dense layer, gated top-k pooling with readout per graph
of a batch, and the two losses, plus the row softmax and the cosine of
index arrays of pairs of rows.  Each operation checks shapes, verifies its
output is finite, and records a backward closure on the tape, unless
inside ``no_tape()``.  Neighbour means run over per-edge message index
arrays, never a dense adjacency matrix: a planned sum groups the messages
by their rank at the receiver, so each group adds at most one row into
each node, and the sum allocates nothing larger than the n x d output.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import settings
from .errors import BadLabelError, NonFiniteError, ShapeMismatchError, ZeroVectorError

_EPS_NORM = 1e-12
_LOG_EPS = 1e-12


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got {arr.ndim}")
    return arr


class Tensor:
    """A matrix plus the tape bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def __repr__(self) -> str:
        return f"Tensor({self.data!r})"


class Parameter(Tensor):
    """A trainable tensor with a stable name for checkpointing."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


_taping = [True]


@contextmanager
def no_tape():
    """Operations inside record nothing for backward(), so each one's
    intermediates are freed as soon as the next has read its output."""
    _taping.append(False)
    try:
        yield
    finally:
        _taping.pop()


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced NaN or Inf")
    out = Tensor(data)
    if _taping[-1] and _tracked(*parents):
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def constant(data) -> Tensor:
    return Tensor(data)


# --- operations ---

def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if _tracked(a):
            dot = (g * out_data).sum(axis=1, keepdims=True)
            a.ensure_grad()[...] += (g - dot) * out_data

    return _make(out_data, (a,), backward)


# --- layer operations: one tape node per layer, backward beside forward ---

def _act(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0.0)
    if activation == "tanh":
        return np.tanh(pre)
    settings.ARCH["activation"].check(activation)  # identity, or ValueError
    return pre


def _act_grad(g: np.ndarray, pre: np.ndarray, out: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return g * (pre > 0.0)
    if activation == "tanh":
        return g * (1.0 - out * out)
    return g


def _check_linear(x: Tensor, W: Tensor, b: Tensor) -> None:
    if W.rows != x.cols or b.shape != (1, W.cols):
        raise ShapeMismatchError(f"linear {x.shape} x {W.shape} + {b.shape}")


def _scatter_rows(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """n zero rows with rows[i] added into row idx[i], in order of i."""
    d = rows.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


def _sum_plan(recv: np.ndarray, send: np.ndarray, n: int) -> list:
    """The messages send[i] -> recv[i] grouped by rank: group r holds each
    receiver's r-th message in message order, so no receiver appears twice
    in a group.  One (receivers, senders) pair of arrays per group."""
    count = np.bincount(recv, minlength=n)
    by_recv = np.argsort(recv, kind="stable")
    rank = np.empty(recv.size, dtype=np.intp)
    rank[by_recv] = np.arange(recv.size) - np.repeat(np.cumsum(count) - count, count)
    order = np.argsort(rank, kind="stable")
    recv, send = recv[order], send[order]
    bounds = np.cumsum(np.bincount(rank)).tolist()
    return [(recv[lo:hi], send[lo:hi]) for lo, hi in zip([0] + bounds, bounds)]


def _planned_sum(rows: np.ndarray, plan: list, n: int) -> np.ndarray:
    """n zero rows with rows[send[i]] added into row recv[i] for each
    message i of the plan: a receiver's messages arrive one group after
    another, in message order, so the sums equal those of _scatter_rows
    bit for bit, and no temporary is larger than n x d."""
    out = np.zeros((n, rows.shape[1]))
    for recv, send in plan:
        part = rows.take(send, axis=0)
        part += out.take(recv, axis=0)
        out[recv] = part
    return out


def _adj_plan(adj, transposed: bool):
    """adj's sum plan for the mean (messages into dst) or for its transpose
    (into src), kept in ``adj.plans`` where adj has that dict."""
    plans = getattr(adj, "plans", {})
    if transposed not in plans:
        recv, send = (adj.msg_src, adj.msg_dst) if transposed else (adj.msg_dst, adj.msg_src)
        plans[transposed] = _sum_plan(recv, send, adj.n)
    return plans[transposed]


def graph_conv(X: Tensor, W_self: Tensor, W_neigh: Tensor, bias: Tensor, adj,
               activation: str) -> Tensor:
    """act(X W_self + M W_neigh + bias), where M[v] is the mean of X over
    v's neighbours: inv_deg[v] times the sum of X[msg_src[i]] over the
    messages i with msg_dst[i] == v, added in message order.  ``adj``
    carries n, msg_src, msg_dst (in any order) and the n x 1 inv_deg (see
    ``graph2vec.build_adjacency``), and may keep the sum plans (see
    ``_sum_plan``) in a dict ``plans``; without it they are planned per call."""
    if X.rows != adj.n:
        raise ShapeMismatchError(f"{X.rows} feature rows for {adj.n} nodes")
    _check_linear(X, W_self, bias)
    if W_neigh.shape != W_self.shape:
        raise ShapeMismatchError(f"W_neigh {W_neigh.shape} vs W_self {W_self.shape}")
    src, dst, inv_deg = adj.msg_src, adj.msg_dst, adj.inv_deg
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= adj.n):
        raise ShapeMismatchError(f"message index out of range for {adj.n} nodes")
    with np.errstate(over="ignore", invalid="ignore"):  # _make reports blow-ups
        mean = _planned_sum(X.data, _adj_plan(adj, False), adj.n) * inv_deg
        pre = X.data @ W_self.data + mean @ W_neigh.data + bias.data
        out_data = _act(pre, activation)

    def backward(g: np.ndarray) -> None:
        gpre = _act_grad(g, pre, out_data, activation)
        if _tracked(W_self):
            W_self.ensure_grad()[...] += X.data.T @ gpre
        if _tracked(W_neigh):
            W_neigh.ensure_grad()[...] += mean.T @ gpre
        if _tracked(bias):
            bias.ensure_grad()[...] += gpre.sum(axis=0, keepdims=True)
        if _tracked(X):
            # the mean's transpose: message i sends g_mean[dst[i]] back to src[i]
            g_mean = (gpre @ W_neigh.data.T) * inv_deg
            X.ensure_grad()[...] += gpre @ W_self.data.T
            X.grad += _planned_sum(g_mean, _adj_plan(adj, True), adj.n)

    return _make(out_data, (X, W_self, W_neigh, bias), backward)


def dense(x: Tensor, W: Tensor, b: Tensor, activation: str = "identity") -> Tensor:
    """act(x W + b), the bias row broadcast over x's rows."""
    _check_linear(x, W, b)
    with np.errstate(over="ignore", invalid="ignore"):  # _make reports blow-ups
        pre = x.data @ W.data + b.data
        out_data = _act(pre, activation)

    def backward(g: np.ndarray) -> None:
        gpre = _act_grad(g, pre, out_data, activation)
        if _tracked(W):
            W.ensure_grad()[...] += x.data.T @ gpre
        if _tracked(b):
            b.ensure_grad()[...] += gpre.sum(axis=0, keepdims=True)
        if _tracked(x):
            x.ensure_grad()[...] += gpre @ W.data.T

    return _make(out_data, (x, W, b), backward)


def gate_pool(X: Tensor, alpha: Tensor, keep: np.ndarray, readout: str,
              segment: np.ndarray) -> Tensor:
    """The sum or mean over the rows ``keep`` (distinct indices) of X, each
    scaled by tanh of its score in the n x 1 ``alpha``: one row per segment,
    ``segment`` (nondecreasing, every row 0..G-1 present) naming the output
    row of each kept row."""
    if alpha.shape != (X.rows, 1):
        raise ShapeMismatchError(f"{alpha.shape} scores for {X.rows} rows")
    if keep.size and (keep.min() < 0 or keep.max() >= X.rows):
        raise ShapeMismatchError(f"pooled index out of range for {X.rows} rows")
    settings.ARCH["readout"].check(readout)
    steps = np.diff(segment)
    if (segment.shape != keep.shape or not segment.size or segment[0] != 0
            or ((steps != 0) & (steps != 1)).any()):
        raise ShapeMismatchError("segments must run 0, 1, ... over the kept rows")
    gate = np.tanh(alpha.data[keep])
    rows = X.data[keep] * gate
    total = _scatter_rows(rows, segment, int(segment[-1]) + 1)
    counts = np.bincount(segment)[:, None]
    out_data = total if readout == "sum" else total / counts

    def backward(g: np.ndarray) -> None:
        g_rows = (g if readout == "sum" else g / counts)[segment]
        if _tracked(X):
            X.ensure_grad()[keep] += g_rows * gate
        if _tracked(alpha):
            g_gate = (g_rows * X.data[keep]).sum(axis=1, keepdims=True)
            alpha.ensure_grad()[keep] += g_gate * (1.0 - gate * gate)

    return _make(out_data, (X, alpha), backward)


def cross_entropy(y_hat: Tensor, Y: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of the targets Y under the class
    probabilities y_hat: Y holds one-hot rows, or per row the number of
    items of each class that row stands for."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != y_hat.shape:
        raise ShapeMismatchError(f"targets {Y.shape} vs predictions {y_hat.shape}")
    shifted = y_hat.data + _LOG_EPS
    if (shifted <= 0.0).any():
        raise NonFiniteError("log of non-positive value")
    out_data = np.array([[-(Y * np.log(shifted)).sum()]])

    def backward(g: np.ndarray) -> None:
        if _tracked(y_hat):
            y_hat.ensure_grad()[...] += (-g[0, 0] * Y) / shifted

    return _make(out_data, (y_hat,), backward)


def pair_cosine(H: Tensor, first: np.ndarray, second: np.ndarray) -> Tensor:
    """P x 1: the cosine of rows first[i] and second[i] of H, clamped to
    [-1, 1]; equal rows score exactly 1."""
    if first.shape != second.shape or first.ndim != 1:
        raise ShapeMismatchError(f"pair index arrays {first.shape} vs {second.shape}")
    if first.size and (min(first.min(), second.min()) < 0
                       or max(first.max(), second.max()) >= H.rows):
        raise ShapeMismatchError(f"pair index out of range for {H.rows} rows")
    norms = np.sqrt(np.einsum("ij,ij->i", H.data, H.data))[:, None]
    if (norms <= _EPS_NORM).any():
        raise ZeroVectorError("cosine of (near-)zero vector")
    u, v = H.data[first], H.data[second]
    nu, nv = norms[first], norms[second]
    raw = np.einsum("ij,ij->i", u, v)[:, None] / (nu * nv)
    # identical rows must score exactly 1; the ratio alone can lose a ulp
    equal = (u == v).all(axis=1, keepdims=True)
    out_data = np.where(equal, 1.0, np.clip(raw, -1.0, 1.0))

    def backward(g: np.ndarray) -> None:
        # gradient of the unclamped ratio; the clamp only trims rounding spill
        if _tracked(H):
            gu = g * (v / (nu * nv) - raw * u / (nu * nu))
            gv = g * (u / (nu * nv) - raw * v / (nv * nv))
            rows = np.vstack((H.ensure_grad(), gu, gv))
            idx = np.concatenate((np.arange(H.rows), first, second))
            H.grad[...] = _scatter_rows(rows, idx, H.rows)

    return _make(out_data, (H,), backward)


def contrastive_loss(y_hat: Tensor, y, margin: float) -> Tensor:
    """Summed over the rows of the similarities y_hat (P x 1) with pair
    labels y (one +1 or -1 per row, or a bare label for a 1 x 1 y_hat): +1
    pairs pay 1 - y_hat, -1 pairs pay only the part of y_hat above the
    margin."""
    labels = np.asarray(y).reshape(-1)
    if labels.dtype.kind not in "biuf" or not ((labels == 1) | (labels == -1)).all():
        raise BadLabelError(f"pair label must be +1 or -1, got {y!r}")
    if y_hat.cols != 1 or y_hat.rows != labels.size:
        raise ShapeMismatchError(f"contrastive loss of shape {y_hat.shape} for "
                                 f"{labels.size} labels")
    s = y_hat.data[:, 0]
    positive = labels == 1
    slope = np.where(positive, -1.0, (s - margin > 0.0).astype(np.float64))[:, None]
    out_data = np.array([[np.where(positive, 1.0 - s, np.maximum(s - margin, 0.0)).sum()]])

    def backward(g: np.ndarray) -> None:
        if _tracked(y_hat):
            y_hat.ensure_grad()[...] += g * slope

    return _make(out_data, (y_hat,), backward)


# --- tape replay ---

def backward(loss: Tensor) -> None:
    """Populate gradients of every tensor reachable from ``loss``."""
    if loss.data.shape != (1, 1):
        raise ShapeMismatchError(f"backward needs a scalar, got {loss.shape}")
    if not np.isfinite(loss.data[0, 0]):
        raise NonFiniteError("backward on non-finite loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.ensure_grad()[...] = 1.0
    # by the time a node is reached, every consumer has contributed to its
    # gradient, so leaves get checked too; an inner node is then spent, and
    # dropping its closure frees the forward arrays it held
    with np.errstate(all="ignore"):
        while topo:
            node = topo.pop()
            if node._backward_fn is not None:
                node._backward_fn(node.ensure_grad())
                node._backward_fn, node._parents = None, ()
            if node.grad is not None and not np.isfinite(node.grad).all():
                raise NonFiniteError("gradient produced NaN or Inf")


# --- optimizers ---

def zero_grads(params: list[Parameter]) -> None:
    for p in params:
        p.grad = None


def sgd_step(params: list[Parameter], lr: float) -> None:
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


class Adam:
    """Adaptive-moment optimizer with bias correction."""

    def __init__(self, params: list[Parameter], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

