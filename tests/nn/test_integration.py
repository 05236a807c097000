"""Integration tests: the nn substrate behaves like a training framework.

These exercise multi-component behaviours that unit tests can't see:
training dynamics, gradient flow through deep compositions, and the
interplay of optimizer + loss + model.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.convnet import ConvNet
from repro.nn.layers import Flatten, InstanceNorm2d, Linear, ReLU, Sequential
from repro.nn.losses import cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad


def make_blobs(rng, n_per_class=20, classes=3, dim=8, separation=3.0):
    centers = rng.standard_normal((classes, dim)) * separation
    x = np.concatenate([
        centers[c] + rng.standard_normal((n_per_class, dim))
        for c in range(classes)]).astype(np.float32)
    y = np.repeat(np.arange(classes), n_per_class)
    return x, y


class TestTrainingDynamics:
    def test_mlp_learns_blobs_with_momentum_sgd(self, rng):
        x, y = make_blobs(rng)
        model = Sequential(Flatten(), Linear(8, 16, rng=rng), ReLU(),
                           Linear(16, 3, rng=rng))
        opt = SGD(model.parameters(), 0.05, momentum=0.9)
        for _ in range(80):
            opt.zero_grad()
            cross_entropy(model(Tensor(x)), y).backward()
            opt.step()
        acc = (model(Tensor(x)).data.argmax(axis=1) == y).mean()
        assert acc > 0.95

    def test_gradients_flow_through_deep_convnet(self, rng):
        net = ConvNet(3, 4, 16, width=8, depth=4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32),
                   requires_grad=True)
        cross_entropy(net(x), np.array([0, 1])).backward()
        assert x.grad is not None
        assert np.abs(x.grad).max() > 0
        first_conv = net.encoder[0]
        assert first_conv.weight.grad is not None
        assert np.abs(first_conv.weight.grad).max() > 0

    def test_instance_norm_makes_training_scale_invariant(self, rng):
        # With instance norm up front, scaling inputs by 100x barely
        # changes the logits.
        net = Sequential(InstanceNorm2d(1, affine=False))
        x = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
        out1 = net(Tensor(x)).data
        out2 = net(Tensor(x * 100.0)).data
        np.testing.assert_allclose(out1, out2, atol=1e-3)

    def test_weight_decay_shrinks_unused_parameters(self, rng):
        model = Linear(4, 2, rng=rng)
        opt = SGD([model.weight], 0.1, momentum=0.0, weight_decay=0.5)
        norms = [float(np.linalg.norm(model.weight.data))]
        for _ in range(60):
            model.weight.grad = np.zeros_like(model.weight.data)
            opt.step()
            norms.append(float(np.linalg.norm(model.weight.data)))
        # Each step multiplies by (1 - lr*wd) = 0.95; 60 steps ~ 0.046x.
        assert norms[-1] < norms[0] * 0.1


class TestInferenceBehaviour:
    def test_no_grad_inference_allocates_no_graph(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        with no_grad():
            out = net(Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32)))
        assert not out.requires_grad
        assert out._parents == ()

    def test_softmax_of_logits_is_valid_distribution(self, rng):
        net = ConvNet(1, 5, 8, width=4, depth=2, rng=rng)
        with no_grad():
            logits = net(Tensor(rng.standard_normal((3, 1, 8, 8)).astype(np.float32)))
            probs = F.softmax(logits, axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        assert (probs >= 0).all()

    def test_deterministic_forward(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(net(x).data, net(x).data)


class TestNumericalRobustness:
    def test_cross_entropy_with_extreme_logits(self):
        logits = Tensor(np.array([[1e4, -1e4], [-1e4, 1e4]],
                                 dtype=np.float32), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()

    def test_log_softmax_no_nan_for_large_negatives(self):
        x = Tensor(np.full((2, 3), -1e4, dtype=np.float32))
        out = F.log_softmax(x, axis=1).data
        assert np.isfinite(out).all()

    def test_instance_norm_constant_input(self):
        # Zero variance: eps must keep the output finite.
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32), requires_grad=True)
        out = F.instance_norm2d(x)
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert np.isfinite(x.grad).all()

    def test_l2_normalize_zero_vector(self):
        x = Tensor(np.zeros((1, 4), dtype=np.float32), requires_grad=True)
        out = F.l2_normalize(x, axis=1)
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert np.isfinite(x.grad).all()
