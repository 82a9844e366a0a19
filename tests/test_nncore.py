"""Numeric core: forward semantics, reverse-mode gradients against central
finite differences, and optimizer update rules."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck
from hwgnn.errors import NonFiniteError, ShapeMismatchError, ZeroVectorError
from hwgnn.nncore import (
    Adam,
    Parameter,
    Tensor,
    add,
    backward,
    constant,
    cosine,
    gather_rows,
    hadamard,
    log_,
    matmul,
    mean_rows,
    relu,
    row_scale,
    scale,
    scatter_add_rows,
    sgd_step,
    softmax_rows,
    sub,
    sum_all,
    sum_rows,
    tanh_,
    zero_grads,
)

RNG = np.random.default_rng(20)


def weighted_sum(out, weights):
    """Random-weight scalar readout so gradients are not uniform."""
    return sum_all(hadamard(out, constant(weights)))


class TestForward:
    def test_matmul_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(constant(np.eye(2)), constant(m))
        assert np.array_equal(out.data, m)

    def test_softmax_symmetry(self):
        out = softmax_rows(constant([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_hadamard_arithmetic(self):
        out = hadamard(constant([[1.0, 2.0]]), constant([[3.0, 4.0]]))
        assert out.data.tolist() == [[3.0, 8.0]]

    def test_add_broadcasts_single_row(self):
        out = add(constant([[1.0, 1.0], [2.0, 2.0]]), constant([[10.0, 20.0]]))
        assert out.data.tolist() == [[11.0, 21.0], [12.0, 22.0]]

    def test_sub(self):
        out = sub(constant([[3.0]]), constant([[1.0]]))
        assert out.item() == 2.0

    def test_relu_clips_negatives(self):
        out = relu(constant([[-1.0, 0.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_tanh_matches_numpy(self):
        x = np.array([[0.3, -1.2]])
        assert np.allclose(tanh_(constant(x)).data, np.tanh(x))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NonFiniteError, match="log"):
            log_(constant([[0.0]]))

    def test_row_reductions(self):
        x = constant([[1.0, 2.0], [3.0, 4.0]])
        assert sum_rows(x).data.tolist() == [[4.0, 6.0]]
        assert mean_rows(x).data.tolist() == [[2.0, 3.0]]
        assert sum_all(x).item() == 10.0

    def test_row_scale(self):
        out = row_scale(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[2.0], [10.0]]))
        assert out.data.tolist() == [[2.0, 4.0], [30.0, 40.0]]

    def test_gather_rows(self):
        out = gather_rows(constant([[1.0], [2.0], [3.0]]), np.array([2, 0, 2]))
        assert out.data.tolist() == [[3.0], [1.0], [3.0]]

    def test_scatter_add_rows(self):
        out = scatter_add_rows(constant([[1.0], [2.0], [4.0]]), np.array([1, 1, 0]), 3)
        assert out.data.tolist() == [[4.0], [3.0], [0.0]]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_outputs_enforced(self):
        with pytest.raises(NonFiniteError):
            scale(constant([[1e308]]), 10.0)


class TestCosine:
    def test_self_similarity_is_one(self):
        u = constant([[0.3, -2.0, 1.5]])
        assert cosine(u, u).item() == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine(constant([[1.0, 0.0]]), constant([[0.0, 1.0]])).item() == 0.0

    def test_opposite_is_minus_one(self):
        assert cosine(constant([[1.0, 0.0]]), constant([[-1.0, 0.0]])).item() == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine(constant([[0.0, 0.0]]), constant([[1.0, 0.0]]))

    def test_requires_single_rows(self):
        two = constant([[1.0], [2.0]])
        with pytest.raises(ShapeMismatchError):
            cosine(two, two)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        u = constant(rng.normal(size=(1, 6)) * 10.0 + 1e-3)
        v = constant(rng.normal(size=(1, 6)) * 10.0 + 1e-3)
        assert -1.0 <= cosine(u, v).item() <= 1.0


class TestShapeErrors:
    def test_matmul(self):
        with pytest.raises(ShapeMismatchError):
            matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))

    def test_add(self):
        with pytest.raises(ShapeMismatchError):
            add(constant(np.ones((2, 3))), constant(np.ones((2, 2))))

    def test_hadamard(self):
        with pytest.raises(ShapeMismatchError):
            hadamard(constant(np.ones((2, 3))), constant(np.ones((1, 3))))

    def test_row_scale(self):
        with pytest.raises(ShapeMismatchError):
            row_scale(constant(np.ones((2, 3))), constant(np.ones((3, 1))))

    def test_gather_range(self):
        with pytest.raises(ShapeMismatchError):
            gather_rows(constant(np.ones((2, 1))), np.array([2]))

    def test_scatter_index_per_row(self):
        with pytest.raises(ShapeMismatchError):
            scatter_add_rows(constant(np.ones((2, 1))), np.array([0]), 2)

    def test_scatter_range(self):
        with pytest.raises(ShapeMismatchError):
            scatter_add_rows(constant(np.ones((2, 1))), np.array([0, 5]), 2)

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
        backward(sum_all(w))
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_half_square_norm_gradient_is_identity(self):
        w = Parameter(RNG.normal(size=(2, 4)), "w")
        backward(scale(sum_all(hadamard(w, w)), 0.5))
        assert np.allclose(w.grad, w.data)

    def test_gradients_accumulate_across_uses(self):
        w = Parameter([[2.0]], "w")
        backward(add(sum_all(w), sum_all(w)))
        assert w.grad.tolist() == [[2.0]]

    def test_constants_get_no_gradient(self):
        c = constant([[1.0]])
        w = Parameter([[1.0]], "w")
        backward(sum_all(hadamard(w, c)))
        assert c.grad is None

    def test_nonfinite_gradient_detected(self):
        # smallest denormal: log is finite but 1/x overflows in backward
        w = Parameter([[5e-324]], "w")
        with pytest.raises(NonFiniteError):
            backward(sum_all(log_(w)))


class TestGradientOracle:
    def test_matmul(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        b = Parameter(RNG.normal(size=(4, 2)), "b")
        w = RNG.normal(size=(3, 2))
        fd_gradcheck(lambda: weighted_sum(matmul(a, b), w), [a, b])

    def test_add_with_broadcast(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        b = Parameter(RNG.normal(size=(1, 4)), "bias")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(add(a, b), w), [a, b])

    def test_hadamard(self):
        a = Parameter(RNG.normal(size=(2, 5)), "a")
        b = Parameter(RNG.normal(size=(2, 5)), "b")
        w = RNG.normal(size=(2, 5))
        fd_gradcheck(lambda: weighted_sum(hadamard(a, b), w), [a, b])

    def test_row_scale(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        s = Parameter(RNG.normal(size=(3, 1)), "s")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(row_scale(a, s), w), [a, s])

    def test_scale(self):
        a = Parameter(RNG.normal(size=(2, 3)), "a")
        w = RNG.normal(size=(2, 3))
        fd_gradcheck(lambda: weighted_sum(scale(a, -1.7), w), [a])

    def test_relu_away_from_kink(self):
        signs = RNG.choice([-1.0, 1.0], size=(3, 4))
        a = Parameter(signs * RNG.uniform(0.2, 1.0, size=(3, 4)), "a")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(relu(a), w), [a])

    def test_tanh(self):
        a = Parameter(RNG.normal(size=(2, 4)), "a")
        w = RNG.normal(size=(2, 4))
        fd_gradcheck(lambda: weighted_sum(tanh_(a), w), [a])

    def test_softmax(self):
        a = Parameter(RNG.normal(size=(3, 4)), "a")
        w = RNG.normal(size=(3, 4))
        fd_gradcheck(lambda: weighted_sum(softmax_rows(a), w), [a])

    def test_log(self):
        a = Parameter(RNG.uniform(0.5, 2.0, size=(2, 3)), "a")
        w = RNG.normal(size=(2, 3))
        fd_gradcheck(lambda: weighted_sum(log_(a), w), [a])

    def test_reductions(self):
        a = Parameter(RNG.normal(size=(4, 3)), "a")
        w = RNG.normal(size=(1, 3))
        fd_gradcheck(lambda: weighted_sum(sum_rows(a), w), [a])
        fd_gradcheck(lambda: weighted_sum(mean_rows(a), w), [a])

    def test_gather(self):
        a = Parameter(RNG.normal(size=(4, 3)), "a")
        idx = np.array([0, 2, 2, 3, 1])
        w = RNG.normal(size=(5, 3))
        fd_gradcheck(lambda: weighted_sum(gather_rows(a, idx), w), [a])

    def test_scatter_add(self):
        a = Parameter(RNG.normal(size=(5, 3)), "a")
        idx = np.array([1, 0, 1, 3, 3])
        w = RNG.normal(size=(4, 3))
        fd_gradcheck(lambda: weighted_sum(scatter_add_rows(a, idx, 4), w), [a])

    def test_cosine(self):
        u = Parameter(RNG.normal(size=(1, 5)) + 0.3, "u")
        v = Parameter(RNG.normal(size=(1, 5)) - 0.2, "v")
        fd_gradcheck(lambda: cosine(u, v), [u, v])

    def test_three_layer_composite(self):
        x = constant(RNG.normal(size=(4, 6)))
        w1 = Parameter(RNG.normal(size=(6, 5)) * 0.5, "w1")
        b1 = Parameter(RNG.normal(size=(1, 5)) * 0.1, "b1")
        w2 = Parameter(RNG.normal(size=(5, 4)) * 0.5, "w2")
        b2 = Parameter(RNG.normal(size=(1, 4)) * 0.1, "b2")
        w3 = Parameter(RNG.normal(size=(4, 3)) * 0.5, "w3")
        w = RNG.normal(size=(4, 3))

        def loss():
            h1 = tanh_(add(matmul(x, w1), b1))
            h2 = tanh_(add(matmul(h1, w2), b2))
            return weighted_sum(softmax_rows(matmul(h2, w3)), w)

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
                backward(sum_all(tanh_(matmul(x, w))))
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
        out = add(constant([[1.0]]), constant([[2.0]]))
        assert out._parents == ()
        assert out._backward_fn is None

    def test_tracked_ops_record_tape(self):
        out = add(Parameter([[1.0]], "w"), constant([[2.0]]))
        assert len(out._parents) == 2
