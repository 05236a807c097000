"""Unit tests for structured NN ops (repro.nn.functional)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.conftest import assert_grad_matches


class TestConv2d:
    def test_output_shape_no_padding(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32))
        assert F.conv2d(x, w).shape == (2, 5, 6, 6)

    def test_output_shape_with_padding(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        assert F.conv2d(x, w, padding=1).shape == (1, 4, 6, 6)

    def test_output_shape_with_stride(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 1, 2, 2)).astype(np.float32))
        assert F.conv2d(x, w, stride=2).shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channel"):
            F.conv2d(x, w)

    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 1, 1), dtype=np.float32)
        w[0, 0, 0, 0] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x)

    def test_matches_manual_convolution(self, rng):
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w)).data[0, 0]
        expected = np.zeros((3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_bias_broadcast(self, rng):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.array([1.5, -2.0], dtype=np.float32))
        out = F.conv2d(x, w, b)
        np.testing.assert_allclose(out.data[0, 0], 1.5)
        np.testing.assert_allclose(out.data[0, 1], -2.0)

    def test_input_gradient(self, rng):
        w_val = (rng.standard_normal((2, 2, 3, 3)) * 0.4).astype(np.float32)
        x_val = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        assert_grad_matches(
            lambda t: (F.conv2d(t, Tensor(w_val), padding=1) ** 2).sum(), x_val)

    def test_weight_gradient(self, rng):
        x_val = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        w_val = (rng.standard_normal((2, 2, 3, 3)) * 0.4).astype(np.float32)
        assert_grad_matches(
            lambda t: (F.conv2d(Tensor(x_val), t, padding=1) ** 2).sum(), w_val)

    def test_bias_gradient(self, rng):
        x_val = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        w_val = (rng.standard_normal((3, 1, 3, 3)) * 0.4).astype(np.float32)
        b_val = rng.standard_normal(3).astype(np.float32)
        assert_grad_matches(
            lambda t: (F.conv2d(Tensor(x_val), Tensor(w_val), t) ** 2).sum(),
            b_val)

    def test_stride_gradient(self, rng):
        x_val = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        w_val = (rng.standard_normal((1, 1, 2, 2)) * 0.5).astype(np.float32)
        assert_grad_matches(
            lambda t: (F.conv2d(t, Tensor(w_val), stride=2) ** 2).sum(), x_val)


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0],
                                   [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self, rng):
        val = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
        assert_grad_matches(lambda t: (F.avg_pool2d(t, 2) ** 2).sum(), val)

    def test_avg_pool_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            F.avg_pool2d(Tensor(np.zeros((1, 1, 5, 4), dtype=np.float32)), 2)


class TestNormalization:
    def test_instance_norm_statistics(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32) * 4 + 2)
        out = F.instance_norm2d(x).data
        np.testing.assert_allclose(out.mean(axis=(2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=(2, 3)), 1.0, atol=1e-3)

    def test_instance_norm_affine(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        gamma = Tensor(np.array([2.0, 3.0], dtype=np.float32))
        beta = Tensor(np.array([1.0, -1.0], dtype=np.float32))
        out = F.instance_norm2d(x, gamma, beta).data
        np.testing.assert_allclose(out.mean(axis=(2, 3)), [[1.0, -1.0]],
                                   atol=1e-5)

    def test_instance_norm_input_gradient(self, rng):
        val = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        gamma = Tensor(np.array([1.5, 0.5], dtype=np.float32))
        beta = Tensor(np.zeros(2, dtype=np.float32))
        assert_grad_matches(
            lambda t: (F.instance_norm2d(t, gamma, beta) ** 2).sum(), val,
            atol=2e-2)

    def test_instance_norm_affine_gradients(self, rng):
        x_val = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        gamma_val = rng.standard_normal(2).astype(np.float32)
        beta_val = rng.standard_normal(2).astype(np.float32)
        assert_grad_matches(
            lambda t: (F.instance_norm2d(Tensor(x_val), t, Tensor(beta_val))
                       ** 2).sum(), gamma_val)
        assert_grad_matches(
            lambda t: (F.instance_norm2d(Tensor(x_val), Tensor(gamma_val), t)
                       ** 2).sum(), beta_val)


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)).astype(np.float32) * 3)
        out = F.softmax(x, axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_softmax_stability_large_logits(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]]), axis=1).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        np.testing.assert_allclose(F.log_softmax(x, axis=1).data,
                                   np.log(F.softmax(x, axis=1).data),
                                   rtol=1e-4, atol=1e-6)

    def test_log_softmax_gradient(self, rng):
        val = rng.standard_normal((3, 4)).astype(np.float32)
        weights = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        assert_grad_matches(
            lambda t: (F.log_softmax(t, axis=1) * weights).sum(), val)

    def test_softmax_gradient(self, rng):
        val = rng.standard_normal((3, 4)).astype(np.float32)
        weights = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        assert_grad_matches(
            lambda t: (F.softmax(t, axis=1) * weights).sum(), val)

    def test_l2_normalize_unit_norm(self, rng):
        x = Tensor(rng.standard_normal((6, 8)).astype(np.float32) * 5)
        out = F.l2_normalize(x, axis=1).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-4)

    def test_l2_normalize_gradient(self, rng):
        val = rng.standard_normal((2, 5)).astype(np.float32) + 2.0
        weights = Tensor(rng.standard_normal((2, 5)).astype(np.float32))
        assert_grad_matches(
            lambda t: (F.l2_normalize(t, axis=1) * weights).sum(), val)


class TestLinearAndDropout:
    def test_linear_values(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, x @ w.T + b, rtol=1e-5)

    def test_linear_no_bias(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4)).astype(np.float32)
        np.testing.assert_allclose(F.linear(Tensor(x), Tensor(w)).data,
                                   x @ w.T, rtol=1e-5)
