"""Numeric core: forward semantics of the layer operations, reverse-mode
gradients against central finite differences, and optimizer update rules."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck
from hwgnn.settings import ARCH
from hwgnn.errors import NonFiniteError, ShapeMismatchError, ZeroVectorError
from hwgnn.graph2vec import build_adjacency
from hwgnn.nncore import (
    Adam,
    Parameter,
    Tensor,
    backward,
    constant,
    contrastive_loss,
    cross_entropy,
    dense,
    gate_pool,
    graph_conv,
    pair_cosine,
    sgd_step,
    softmax_rows,
    zero_grads,
)

RNG = np.random.default_rng(20)
ONE = 20.0  # np.tanh(20.0) == 1.0 exactly, so the pooling gate passes rows unchanged


def zeros_bias(cols):
    return constant(np.zeros((1, cols)))


def pool_one(X, alpha, keep, readout):
    """gate_pool of the rows ``keep`` into one row."""
    return gate_pool(X, alpha, keep, readout, np.zeros(len(keep), dtype=np.intp))


def cosine(u, v):
    """pair_cosine of the single rows u and v."""
    return pair_cosine(constant(np.vstack((u, v))), np.array([0]), np.array([1]))


def weighted_sum(out, weights):
    """Random-weight scalar readout so gradients are not uniform: row i of
    ``out`` weighted by tanh(weights[i, 0]) and column j by weights[0, j]."""
    rows = np.arange(out.rows)
    pooled = pool_one(out, constant(weights[:, :1]), rows, "sum")
    return dense(pooled, constant(weights[:1, :].T), zeros_bias(1))


def conv(X, W_self, W_neigh, bias, edges, activation, directed=False):
    return graph_conv(X, W_self, W_neigh, bias, build_adjacency(X.rows, edges, directed),
                      activation)


class TestForward:
    def test_matmul_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = dense(constant(np.eye(2)), constant(m), zeros_bias(2))
        assert np.array_equal(out.data, m)

    def test_softmax_symmetry(self):
        out = softmax_rows(constant([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_hadamard_arithmetic(self):
        # pooling multiplies each kept row elementwise by its tanh gate
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        alpha = np.array([[0.3], [-0.7]])
        out = pool_one(constant(X), constant(alpha), np.array([0, 1]), "sum")
        assert np.allclose(out.data, (X * np.tanh(alpha)).sum(axis=0, keepdims=True))

    def test_add_broadcasts_single_row(self):
        # the bias row is added to every row of x W
        out = dense(constant([[1.0, 1.0], [2.0, 2.0]]), constant(np.eye(2)),
                    constant([[10.0, 20.0]]))
        assert out.data.tolist() == [[11.0, 21.0], [12.0, 22.0]]

    def test_sub(self):
        # a positive pair's contrastive loss is 1 - similarity
        assert contrastive_loss(constant([[0.25]]), 1, 0.5).item() == 0.75

    def test_relu_clips_negatives(self):
        out = dense(constant([[-1.0, 0.0, 2.0]]), constant(np.eye(3)), zeros_bias(3), "relu")
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_tanh_matches_numpy(self):
        x = np.array([[0.3, -1.2]])
        out = conv(constant(x), constant(np.eye(2)), constant(np.eye(2)), zeros_bias(2), [],
                   "tanh")
        assert np.allclose(out.data, np.tanh(x))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NonFiniteError, match="log"):
            cross_entropy(constant([[-1.0, 2.0]]), np.array([[1.0, 0.0]]))

    def test_row_reductions(self):
        x = constant([[1.0, 2.0], [3.0, 4.0]])
        gates = constant([[ONE], [ONE]])
        assert pool_one(x, gates, np.array([0, 1]), "sum").data.tolist() == [[4.0, 6.0]]
        assert pool_one(x, gates, np.array([0, 1]), "mean").data.tolist() == [[2.0, 3.0]]

    def test_row_scale(self):
        out = pool_one(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[ONE], [-ONE]]),
                        np.array([0, 1]), "sum")
        assert out.data.tolist() == [[-2.0, -2.0]]

    def test_gather_rows(self):
        out = pool_one(constant([[1.0], [2.0], [3.0]]), constant([[ONE]] * 3),
                        np.array([0, 2]), "sum")
        assert out.data.tolist() == [[4.0]]

    def test_scatter_add_rows(self):
        # messages 0->1, 1->1, 2->0 with unit weights: node 2 receives none
        adj = SimpleNamespace(n=3, msg_src=np.array([0, 1, 2]), msg_dst=np.array([1, 1, 0]),
                              inv_deg=np.ones((3, 1)))
        out = graph_conv(constant([[1.0], [2.0], [4.0]]), constant([[0.0]]), constant([[1.0]]),
                         zeros_bias(1), adj, "identity")
        assert out.data.tolist() == [[4.0], [3.0], [0.0]]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_outputs_enforced(self):
        with pytest.raises(NonFiniteError):
            dense(constant([[1e308]]), constant([[1.0]]), constant([[1e308]]))


class TestCosine:
    def test_self_similarity_is_one(self):
        u = constant([[0.3, -2.0, 1.5]])
        assert pair_cosine(u, np.array([0]), np.array([0])).item() == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine([[1.0, 0.0]], [[0.0, 1.0]]).item() == 0.0

    def test_opposite_is_minus_one(self):
        assert cosine([[1.0, 0.0]], [[-1.0, 0.0]]).item() == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine([[0.0, 0.0]], [[1.0, 0.0]])

    def test_requires_single_rows(self):
        # each pair names one row of H per side
        two = constant([[1.0], [2.0]])
        with pytest.raises(ShapeMismatchError):
            pair_cosine(two, np.array([[0, 1]]), np.array([[1, 0]]))
        with pytest.raises(ShapeMismatchError):
            pair_cosine(two, np.array([0]), np.array([2]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(1, 6)) * 10.0 + 1e-3
        v = rng.normal(size=(1, 6)) * 10.0 + 1e-3
        assert -1.0 <= cosine(u, v).item() <= 1.0


ACTIVATIONS = ARCH["activation"].rule.meta.split("|")
READOUTS = ARCH["readout"].rule.meta.split("|")


class TestChoicesComeFromSettings:
    @pytest.mark.parametrize("name", ACTIVATIONS + ["gelu", "Relu", "", None, 1])
    def test_activation(self, name):
        args = constant([[1.0, -2.0]]), constant(np.eye(2)), zeros_bias(2)
        if name in ACTIVATIONS:
            assert dense(*args, name).shape == (1, 2)
        else:
            with pytest.raises(ValueError, match="activation"):
                dense(*args, name)

    @pytest.mark.parametrize("name", READOUTS + ["max", "Sum", "", None])
    def test_readout(self, name):
        args = constant([[1.0, 2.0], [3.0, 4.0]]), constant([[ONE], [ONE]]), np.array([0, 1])
        if name in READOUTS:
            assert pool_one(*args, name).shape == (1, 2)
        else:
            with pytest.raises(ValueError, match="readout"):
                pool_one(*args, name)


class TestShapeErrors:
    def test_matmul(self):
        with pytest.raises(ShapeMismatchError):
            dense(constant(np.ones((2, 3))), constant(np.ones((2, 3))), zeros_bias(3))

    def test_add(self):
        # the bias must be one row as wide as x W
        with pytest.raises(ShapeMismatchError):
            dense(constant(np.ones((2, 3))), constant(np.ones((3, 2))), constant(np.ones((2, 2))))

    def test_hadamard(self):
        with pytest.raises(ShapeMismatchError):
            cross_entropy(constant(np.full((2, 3), 0.5)), np.ones((1, 3)))

    def test_row_scale(self):
        with pytest.raises(ShapeMismatchError):
            pool_one(constant(np.ones((2, 3))), constant(np.ones((3, 1))), np.array([0]), "sum")

    def test_gather_range(self):
        with pytest.raises(ShapeMismatchError):
            pool_one(constant(np.ones((2, 1))), constant(np.ones((2, 1))), np.array([2]), "sum")

    def test_scatter_index_per_row(self):
        with pytest.raises(ShapeMismatchError):
            graph_conv(constant(np.ones((2, 1))), constant([[1.0]]), constant([[1.0]]),
                       zeros_bias(1), build_adjacency(3, [], False), "identity")

    def test_scatter_range(self):
        adj = SimpleNamespace(n=2, msg_src=np.array([0]), msg_dst=np.array([5]),
                              inv_deg=np.ones((2, 1)))
        with pytest.raises(ShapeMismatchError):
            graph_conv(constant(np.ones((2, 1))), constant([[1.0]]), constant([[1.0]]),
                       zeros_bias(1), adj, "identity")

    @pytest.mark.parametrize("src, dst", [([-1], [0]), ([0], [-1])],
                             ids=["negative sender", "negative receiver"])
    def test_scatter_negative_index(self, src, dst):
        # a negative sender would wrap to the last node rather than fail
        adj = SimpleNamespace(n=3, msg_src=np.array(src), msg_dst=np.array(dst),
                              inv_deg=np.ones((3, 1)))
        with pytest.raises(ShapeMismatchError, match="out of range"):
            graph_conv(constant(np.ones((3, 1))), constant([[1.0]]), constant([[1.0]]),
                       zeros_bias(1), adj, "identity")

    def test_three_dims_rejected(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.ones((2, 2, 2)))

    def test_item_needs_scalar(self):
        with pytest.raises(ShapeMismatchError):
            constant([[1.0, 2.0]]).item()

    def test_backward_needs_scalar(self):
        with pytest.raises(ShapeMismatchError):
            backward(constant([[1.0, 2.0]]))

    def test_backward_needs_finite(self):
        t = Tensor([[1.0]])
        t.data[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            backward(t)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        w = Parameter(RNG.normal(size=(3, 2)), "w")
        pooled = pool_one(w, constant(np.full((3, 1), ONE)), np.arange(3), "sum")
        backward(dense(pooled, constant(np.ones((2, 1))), zeros_bias(1)))
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_half_square_norm_gradient_is_identity(self):
        # w feeds one dense op as input and as weight; both uses count
        w = Parameter([[1.5]], "w")
        backward(dense(dense(w, w, zeros_bias(1)), constant([[0.5]]), zeros_bias(1)))
        assert np.allclose(w.grad, w.data)

    def test_gradients_accumulate_across_uses(self):
        # w enters one dense op as input, weight and bias: d(w*w + w)/dw = 2w + 1
        w = Parameter([[2.0]], "w")
        backward(dense(w, w, w))
        assert w.grad.tolist() == [[5.0]]

    def test_constants_get_no_gradient(self):
        c = constant([[1.0]])
        w = Parameter([[1.0]], "w")
        backward(dense(w, c, zeros_bias(1)))
        assert c.grad is None

    def test_nonfinite_gradient_detected(self):
        # the forward value is 1e300, but dloss/dW1 = x * W2 = 1e600
        x = constant([[1e300]])
        W1 = Parameter([[1e-300]], "W1")
        W2 = Parameter([[1e300]], "W2")
        with pytest.raises(NonFiniteError):
            backward(dense(dense(x, W1, zeros_bias(1)), W2, zeros_bias(1)))


class TestGradientOracle:
    """One finite-difference check per layer operation and setting; the
    names recall the primitives each layer operation absorbed."""

    def test_matmul(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        b = Parameter(RNG.normal(size=(4, 2)), "b")
        c = Parameter(RNG.normal(size=(1, 2)), "c")
        w = RNG.normal(size=(3, 2))
        fd_gradcheck(lambda: weighted_sum(dense(a, b, c), w), [a, b, c])

    def test_add_with_broadcast(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        b = Parameter(RNG.normal(size=(1, 4)), "bias")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(dense(a, constant(np.eye(4)), b), w), [a, b])

    def test_hadamard(self):
        # the gate product, with the scores held fixed
        a = Parameter(RNG.normal(size=(4, 5)), "a")
        alpha = constant(RNG.normal(size=(4, 1)))
        w = RNG.normal(size=(1, 5))
        fd_gradcheck(lambda: weighted_sum(pool_one(a, alpha, np.arange(4), "sum"), w), [a])

    def test_row_scale(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        s = Parameter(RNG.normal(size=(3, 1)), "s")
        w = RNG.normal(size=(1, 4))
        fd_gradcheck(lambda: weighted_sum(pool_one(a, s, np.arange(3), "sum"), w), [a, s])

    def test_scale(self):
        # contrastive loss: slope -1 for +1 pairs, +1 above the margin for -1 pairs
        s = Parameter([[0.3]], "s")
        fd_gradcheck(lambda: contrastive_loss(s, 1, 0.5), [s])
        fd_gradcheck(lambda: contrastive_loss(s, -1, margin=0.1), [s])

    def test_relu_away_from_kink(self):
        signs = RNG.choice([-1.0, 1.0], size=(3, 4))
        a = Parameter(signs * RNG.uniform(0.2, 1.0, size=(3, 4)), "a")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(dense(a, constant(np.eye(4)), zeros_bias(4), "relu"),
                                          w), [a])
        X = constant(RNG.normal(size=(5, 3)))
        Ws = Parameter(RNG.normal(size=(3, 4)), "Ws")
        Wn = Parameter(RNG.normal(size=(3, 4)), "Wn")
        b = Parameter(RNG.normal(size=(1, 4)), "b")
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
        assert np.abs(conv(X, Ws, Wn, b, edges, "identity").data).min() > 1e-3
        w5 = RNG.normal(size=(5, 4))
        fd_gradcheck(lambda: weighted_sum(conv(X, Ws, Wn, b, edges, "relu"), w5), [Ws, Wn, b])

    def test_tanh(self):
        X = Parameter(RNG.normal(size=(5, 3)), "X")
        Ws = Parameter(RNG.normal(size=(3, 4)), "Ws")
        Wn = Parameter(RNG.normal(size=(3, 4)), "Wn")
        b = Parameter(RNG.normal(size=(1, 4)), "b")
        edges = [(0, 1), (1, 2), (2, 2), (3, 1)]
        w = RNG.normal(size=(5, 4))
        fd_gradcheck(lambda: weighted_sum(conv(X, Ws, Wn, b, edges, "tanh"), w), [X, Ws, Wn, b])

    def test_softmax(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(softmax_rows(a), w), [a])

    def test_log(self):
        a = Parameter(RNG.uniform(0.5, 2.0, size=(2, 3)), "a")
        Y = RNG.uniform(0.0, 1.0, size=(2, 3))
        fd_gradcheck(lambda: cross_entropy(a, Y), [a])

    def test_reductions(self):
        a = Parameter(RNG.normal(size=(4, 3)), "a")
        s = Parameter(RNG.normal(size=(4, 1)), "s")
        w = RNG.normal(size=(1, 3))
        fd_gradcheck(lambda: weighted_sum(pool_one(a, s, np.arange(4), "sum"), w), [a, s])
        fd_gradcheck(lambda: weighted_sum(pool_one(a, s, np.arange(4), "mean"), w), [a, s])

    def test_gather(self):
        a = Parameter(RNG.normal(size=(5, 3)), "a")
        s = Parameter(RNG.normal(size=(5, 1)), "s")
        keep = np.array([0, 2, 3])
        w = RNG.normal(size=(1, 3))
        fd_gradcheck(lambda: weighted_sum(pool_one(a, s, keep, "mean"), w), [a, s])

    def test_scatter_add(self):
        X = Parameter(RNG.normal(size=(5, 3)), "X")
        Ws = Parameter(RNG.normal(size=(3, 2)), "Ws")
        Wn = Parameter(RNG.normal(size=(3, 2)), "Wn")
        b = Parameter(RNG.normal(size=(1, 2)), "b")
        # duplicate edge, self-loop, an isolated node (4), one-way reachability
        edges = [(0, 1), (0, 1), (1, 2), (3, 3), (2, 0), (0, 3)]
        w = RNG.normal(size=(5, 2))
        for directed in (False, True):
            fd_gradcheck(lambda: weighted_sum(conv(X, Ws, Wn, b, edges, "identity", directed), w),
                         [X, Ws, Wn, b])

    def test_cosine(self):
        H = Parameter(np.vstack((RNG.normal(size=(1, 5)) + 0.3, RNG.normal(size=(1, 5)) - 0.2)),
                      "H")
        fd_gradcheck(lambda: pair_cosine(H, np.array([0]), np.array([1])), [H])

    def test_three_layer_composite(self):
        x = constant(RNG.normal(size=(4, 6)))
        w1 = Parameter(RNG.normal(size=(6, 5)) * 0.5, "w1")
        b1 = Parameter(RNG.normal(size=(1, 5)) * 0.1, "b1")
        w2 = Parameter(RNG.normal(size=(5, 4)) * 0.5, "w2")
        b2 = Parameter(RNG.normal(size=(1, 4)) * 0.1, "b2")
        w3 = Parameter(RNG.normal(size=(4, 3)) * 0.5, "w3")
        Y = np.eye(3)[[0, 2, 1, 0]]

        def loss():
            h1 = dense(x, w1, b1, "tanh")
            h2 = dense(h1, w2, b2, "tanh")
            return cross_entropy(softmax_rows(dense(h2, w3, zeros_bias(3))), Y)

        fd_gradcheck(loss, [w1, b1, w2, b2, w3])


class TestOptimizers:
    def test_sgd_arithmetic(self):
        w = Parameter([[1.0]], "w")
        w.grad = np.array([[0.5]])
        sgd_step([w], lr=0.1)
        assert np.allclose(w.data, [[0.95]])

    def test_sgd_skips_missing_gradient(self):
        w = Parameter([[1.0]], "w")
        sgd_step([w], lr=0.1)
        assert w.data.tolist() == [[1.0]]

    def test_zero_grads(self):
        w = Parameter([[1.0]], "w")
        w.grad = np.array([[2.0]])
        zero_grads([w])
        assert w.grad is None

    def test_adam_first_step_magnitude_is_lr(self):
        w = Parameter([[0.0, 0.0]], "w")
        w.grad = np.array([[0.5, -2.0]])
        opt = Adam([w], lr=0.01)
        opt.step()
        # bias-corrected first step moves by ~lr in the gradient direction
        assert np.allclose(w.data, [[-0.01, 0.01]], atol=1e-7)

    def test_adam_keeps_moment_state(self):
        w = Parameter([[0.0]], "w")
        opt = Adam([w], lr=0.1)
        for _ in range(3):
            w.grad = np.array([[1.0]])
            opt.step()
        assert opt.t == 3
        # constant gradient keeps each bias-corrected step at ~lr
        assert np.allclose(w.data, [[-0.3]], atol=1e-6)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_softmax_rows_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        out = softmax_rows(constant(rng.normal(size=(4, 5)) * 5.0)).data
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_fixed_seed_training_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            w = Parameter(rng.normal(size=(3, 3)), "w")
            x = constant(rng.normal(size=(2, 3)))
            opt = Adam([w], lr=0.01)
            for _ in range(5):
                zero_grads([w])
                backward(cross_entropy(softmax_rows(dense(x, w, zeros_bias(3))), np.eye(2, 3)))
                opt.step()
            return w.data.tobytes()

        assert run() == run()


class TestTensorBasics:
    def test_scalar_and_vector_promote_to_matrix(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0]).shape == (1, 2)

    def test_parameter_keeps_name(self):
        assert Parameter([[1.0]], "conv1_w").name == "conv1_w"

    def test_untracked_ops_record_no_tape(self):
        out = dense(constant([[1.0]]), constant([[2.0]]), zeros_bias(1))
        assert out._parents == ()
        assert out._backward_fn is None

    def test_tracked_ops_record_tape(self):
        out = dense(Parameter([[1.0]], "w"), constant([[2.0]]), zeros_bias(1))
        assert len(out._parents) == 3
