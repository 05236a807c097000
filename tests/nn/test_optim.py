"""Unit tests for the optimizers."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Optimizer
from repro.nn.tensor import Tensor


def make_param(value=1.0):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    return p


class TestSGD:
    def test_empty_params_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SGD([], 0.1)

    def test_plain_step(self):
        p = make_param(1.0)
        opt = SGD([p], lr=0.5, momentum=0.0)
        p.grad = np.array([2.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [0.0])

    def test_momentum_accumulates(self):
        p = make_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # v = 1, p = -1
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # v = 1.5, p = -2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_weight_decay_adds_l2_gradient(self):
        p = make_param(2.0)
        opt = SGD([p], lr=1.0, momentum=0.0, weight_decay=0.1)
        p.grad = np.array([0.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 2.0])

    def test_none_grad_is_skipped(self):
        p = make_param(1.0)
        opt = SGD([p], lr=1.0)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = make_param()
        p.grad = np.array([1.0], dtype=np.float32)
        SGD([p], 0.1).zero_grad()
        assert p.grad is None

    def test_converges_on_quadratic(self):
        p = make_param(5.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2


class TestOptimizer:
    def test_base_optimizer_step_is_abstract(self):
        p = make_param()
        with pytest.raises(NotImplementedError):
            Optimizer([p], 0.1).step()
