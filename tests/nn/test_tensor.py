"""Unit tests for the autodiff engine core (repro.nn.tensor)."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad, tensor
from tests.conftest import assert_grad_matches


class TestTensorBasics:
    def test_construction_converts_to_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_tensor_factory(self):
        t = tensor([[1.0, 2.0]], requires_grad=True)
        assert t.requires_grad
        assert t.shape == (1, 2)

    def test_repr_mentions_shape_and_grad(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        text = repr(t)
        assert "(2, 3)" in text
        assert "requires_grad" in text

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.size == 8
        assert t.ndim == 2

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_numpy_returns_underlying_array(self):
        t = Tensor(np.arange(3.0))
        assert t.numpy() is t.data


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (t * 2).backward()

    def test_backward_with_seed_gradient(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 3.0
        out.backward(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(t.grad, [3.0, 6.0, 9.0])

    def test_seed_gradient_shape_mismatch_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 1.0
        with pytest.raises(ValueError, match="shape"):
            out.backward(np.ones(4, dtype=np.float32))

    def test_gradient_accumulates_over_multiple_uses(self):
        t = Tensor(2.0, requires_grad=True)
        out = t * t + t  # dy/dt = 2t + 1 = 5
        out.backward()
        assert t.grad == pytest.approx(5.0)

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor(3.0, requires_grad=True)
        a = t * 2.0
        b = t * 4.0
        out = a + b
        out.backward()
        assert t.grad == pytest.approx(6.0)

    def test_backward_twice_accumulates(self):
        t = Tensor(1.0, requires_grad=True)
        (t * 2.0).backward()
        (t * 2.0).backward()
        assert t.grad == pytest.approx(4.0)

    def test_zero_grad_clears(self):
        t = Tensor(1.0, requires_grad=True)
        (t * 2.0).backward()
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_leaf_without_requires_grad_gets_no_gradient(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=False)
        (a * b).sum().backward()
        assert a.grad is not None
        assert b.grad is None

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(1.0, requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 0.001
        out.backward()
        assert t.grad == pytest.approx(1.0)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_with_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow_scalar_only(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_elementwise_gradients(self, op, rng):
        a_val = rng.standard_normal((3, 4)).astype(np.float32)
        b_val = (rng.standard_normal((3, 4)).astype(np.float32) + 3.0)
        ops = {
            "add": lambda a, b: a + b,
            "sub": lambda a, b: a - b,
            "mul": lambda a, b: a * b,
            "div": lambda a, b: a / b,
        }
        assert_grad_matches(
            lambda t: (ops[op](t, Tensor(b_val)) ** 2).sum(), a_val)
        assert_grad_matches(
            lambda t: (ops[op](Tensor(a_val), t) ** 2).sum(), b_val)

    def test_broadcasting_gradient_row(self, rng):
        a_val = rng.standard_normal((3, 4)).astype(np.float32)
        b_val = rng.standard_normal((1, 4)).astype(np.float32)
        assert_grad_matches(lambda t: ((Tensor(a_val) + t) ** 2).sum(), b_val)

    def test_broadcasting_gradient_scalar(self, rng):
        a_val = rng.standard_normal((2, 3)).astype(np.float32)
        b_val = rng.standard_normal((1,)).astype(np.float32)
        assert_grad_matches(lambda t: ((Tensor(a_val) * t) ** 2).sum(), b_val)

    def test_broadcast_extra_leading_dim(self, rng):
        a_val = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b_val = rng.standard_normal((4,)).astype(np.float32)
        assert_grad_matches(lambda t: ((Tensor(a_val) + t) ** 2).sum(), b_val)


class TestElementwiseFunctions:
    @pytest.mark.parametrize("name", ["exp", "relu"])
    def test_gradients(self, name, rng):
        val = rng.standard_normal((4, 3)).astype(np.float32)
        # Keep the relu kink away from the FD evaluation points.
        val[np.abs(val) < 0.05] = 0.1
        assert_grad_matches(lambda t: getattr(t, name)().sum(), val)

    def test_log_gradient(self, rng):
        val = (rng.random((3, 3)).astype(np.float32) + 0.5)
        assert_grad_matches(lambda t: t.log().sum(), val)

    def test_sqrt_gradient(self, rng):
        val = (rng.random((3, 3)).astype(np.float32) + 0.5)
        assert_grad_matches(lambda t: t.sqrt().sum(), val)

    def test_relu_values(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])


class TestReductions:
    def test_sum_all(self):
        assert Tensor([[1.0, 2.0], [3.0, 4.0]]).sum().item() == pytest.approx(10.0)

    def test_sum_axis_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_sum_axis_gradient(self, rng):
        val = rng.standard_normal((3, 4)).astype(np.float32)
        assert_grad_matches(lambda t: (t.sum(axis=0) ** 2).sum(), val)

    def test_sum_multiple_axes_gradient(self, rng):
        val = rng.standard_normal((2, 3, 4)).astype(np.float32)
        assert_grad_matches(lambda t: (t.sum(axis=(0, 2)) ** 2).sum(), val)

    def test_sum_negative_axis_gradient(self, rng):
        val = rng.standard_normal((2, 3)).astype(np.float32)
        assert_grad_matches(lambda t: (t.sum(axis=-1) ** 2).sum(), val)

    def test_mean_matches_numpy(self, rng):
        val = rng.standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(Tensor(val).mean(axis=1).data,
                                   val.mean(axis=1), rtol=1e-5)

    def test_mean_gradient(self, rng):
        val = rng.standard_normal((3, 4)).astype(np.float32)
        assert_grad_matches(lambda t: (t.mean(axis=1) ** 2).sum(), val)

    def test_max_values(self):
        out = Tensor([[1.0, 5.0], [7.0, 2.0]]).max(axis=1)
        np.testing.assert_allclose(out.data, [5.0, 7.0])

    def test_max_gradient_single_winner(self):
        t = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_gradient_splits_ties(self):
        t = Tensor([[3.0, 3.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        val = rng.standard_normal((2, 6)).astype(np.float32)
        assert_grad_matches(lambda t: (t.reshape(3, 4) ** 2).sum(), val)

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.zeros(6)).reshape((2, 3)).shape == (2, 3)

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3, 4))).flatten().shape == (2, 12)
        assert Tensor(np.zeros((2, 3, 4))).flatten(0).shape == (24,)

    def test_transpose_default_reverses(self):
        assert Tensor(np.zeros((2, 3, 4))).T.shape == (4, 3, 2)

    def test_transpose_gradient(self, rng):
        val = rng.standard_normal((2, 3, 4)).astype(np.float32)
        assert_grad_matches(
            lambda t: (t.transpose(1, 0, 2) ** 2).sum(), val)

    def test_getitem_row(self, rng):
        val = rng.standard_normal((4, 3)).astype(np.float32)
        assert_grad_matches(lambda t: (t[1] ** 2).sum(), val)

    def test_getitem_fancy_index_accumulates_duplicates(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_getitem_negative_stride_slice(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        out = t[::-1]
        np.testing.assert_allclose(out.data, [3.0, 2.0, 1.0, 0.0])
        (out * Tensor([1.0, 2.0, 3.0, 4.0])).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 3.0, 2.0, 1.0])

    def test_pad2d_shape_and_gradient(self, rng):
        val = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        out = Tensor(val).pad2d(2)
        assert out.shape == (1, 2, 7, 7)
        assert_grad_matches(lambda t: (t.pad2d(1) ** 2).sum(), val)

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert t.pad2d(0) is t


class TestMatmul:
    def test_matmul_values(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b,
                                   rtol=1e-5)

    def test_matmul_gradients(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        assert_grad_matches(lambda t: ((t @ Tensor(b)) ** 2).sum(), a)
        assert_grad_matches(lambda t: ((Tensor(a) @ t) ** 2).sum(), b)

    def test_matrix_vector_gradients(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        v = rng.standard_normal(4).astype(np.float32)
        assert_grad_matches(lambda t: ((t @ Tensor(v)) ** 2).sum(), a)
        assert_grad_matches(lambda t: ((Tensor(a) @ t) ** 2).sum(), v)
