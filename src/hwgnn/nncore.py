"""Dense float64 tensors with reverse-mode gradients.

Everything is a 2-D matrix; vectors travel as 1xd or nx1.  Each operation
checks shapes, verifies outputs are finite, and records a backward closure
on the tape.  Aggregation over graph edges uses gather/scatter primitives
instead of dense adjacency products.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, ZeroVectorError

_EPS_NORM = 1e-12


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


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced NaN or Inf")
    out = Tensor(data)
    if _tracked(*parents):
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def constant(data) -> Tensor:
    return Tensor(data)


# --- primitive operations ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeMismatchError(f"matmul {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g @ b.data.T
        if b.requires_grad or b._parents:
            b.ensure_grad()[...] += a.data.T @ g

    return _make(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a single row broadcast over a's rows."""
    if a.shape != b.shape and not (b.rows == 1 and b.cols == a.cols):
        raise ShapeMismatchError(f"add {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g
        if b.requires_grad or b._parents:
            gb = g if b.shape == a.shape else g.sum(axis=0, keepdims=True)
            b.ensure_grad()[...] += gb

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"hadamard {a.shape} * {b.shape}")
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g * b.data
        if b.requires_grad or b._parents:
            b.ensure_grad()[...] += g * a.data

    return _make(out_data, (a, b), backward)


def row_scale(a: Tensor, s: Tensor) -> Tensor:
    """Scale row i of a by s[i, 0]."""
    if s.cols != 1 or s.rows != a.rows:
        raise ShapeMismatchError(f"row_scale {a.shape} by {s.shape}")
    out_data = a.data * s.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g * s.data
        if s.requires_grad or s._parents:
            s.ensure_grad()[...] += (g * a.data).sum(axis=1, keepdims=True)

    return _make(out_data, (a, s), backward)


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g * c

    return _make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g * (a.data > 0.0)

    return _make(out_data, (a,), backward)


def tanh_(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g * (1.0 - out_data * out_data)

    return _make(out_data, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            dot = (g * out_data).sum(axis=1, keepdims=True)
            a.ensure_grad()[...] += (g - dot) * out_data

    return _make(out_data, (a,), backward)


def log_(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise NonFiniteError("log of non-positive value")
    out_data = np.log(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g / a.data

    return _make(out_data, (a,), backward)


def sum_rows(a: Tensor) -> Tensor:
    out_data = a.data.sum(axis=0, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += np.broadcast_to(g, a.shape)

    return _make(out_data, (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    n = a.rows
    out_data = a.data.mean(axis=0, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += np.broadcast_to(g, a.shape) / n

    return _make(out_data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.array([[a.data.sum()]])

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g[0, 0]

    return _make(out_data, (a,), backward)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeMismatchError(f"gather index out of range for {a.rows} rows")
    out_data = a.data[idx]

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            np.add.at(a.ensure_grad(), idx, g)

    return _make(out_data, (a,), backward)


def scatter_add_rows(a: Tensor, idx: np.ndarray, out_rows: int) -> Tensor:
    """out[idx[i]] += a[i]; rows never indexed stay zero."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size != a.rows:
        raise ShapeMismatchError(f"scatter needs one index per row, got {idx.size}/{a.rows}")
    if idx.size and (idx.min() < 0 or idx.max() >= out_rows):
        raise ShapeMismatchError(f"scatter index out of range for {out_rows} rows")
    out_data = np.zeros((out_rows, a.cols))
    np.add.at(out_data, idx, a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.ensure_grad()[...] += g[idx]

    return _make(out_data, (a,), backward)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """Cosine similarity of two single-row tensors, clamped to [-1, 1]."""
    if u.rows != 1 or v.rows != 1 or u.cols != v.cols:
        raise ShapeMismatchError(f"cosine {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u.data))
    nv = float(np.linalg.norm(v.data))
    if nu <= _EPS_NORM or nv <= _EPS_NORM:
        raise ZeroVectorError("cosine of (near-)zero vector")
    raw = float(u.data.reshape(-1) @ v.data.reshape(-1)) / (nu * nv)
    # identical vectors must score exactly 1; the ratio alone can lose a ulp
    if u is v or np.array_equal(u.data, v.data):
        value = 1.0
    else:
        value = min(1.0, max(-1.0, raw))
    out_data = np.array([[value]])

    def backward(g: np.ndarray) -> None:
        # gradient of the unclamped ratio; the clamp only trims rounding spill
        gs = g[0, 0]
        if u.requires_grad or u._parents:
            u.ensure_grad()[...] += gs * (v.data / (nu * nv) - raw * u.data / (nu * nu))
        if v.requires_grad or v._parents:
            v.ensure_grad()[...] += gs * (u.data / (nu * nv) - raw * v.data / (nv * nv))

    return _make(out_data, (u, v), backward)


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
    # gradient, so leaves get checked too
    with np.errstate(all="ignore"):
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.ensure_grad())
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

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
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

