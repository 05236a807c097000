"""Unit tests for gradient-matching primitives (repro.condensation.matching)."""

import numpy as np
import pytest

from repro.condensation.matching import (distance_and_grad_wrt_gsyn,
                                         finite_difference_matching_grad,
                                         input_gradient, parameter_gradients)
from repro.data.transforms import AugmentationParams
from repro.nn.convnet import ConvNet
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.losses import cross_entropy, gradient_distance
from repro.nn.tensor import Tensor


@pytest.fixture
def model(rng):
    return ConvNet(1, 3, 8, width=4, depth=2, rng=rng)


@pytest.fixture
def batch(rng):
    x = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1, 2])
    return x, y


class TestParameterGradients:
    def test_matches_direct_backward(self, model, batch):
        x, y = batch
        grads, loss = parameter_gradients(model, x, y)
        model.zero_grad()
        direct_loss = cross_entropy(model(Tensor(x)), y)
        direct_loss.backward()
        assert loss == pytest.approx(direct_loss.item(), rel=1e-5)
        for g, p in zip(grads, model.parameters()):
            np.testing.assert_allclose(g, p.grad, rtol=1e-5)
        model.zero_grad()

    def test_leaves_model_grads_clean(self, model, batch):
        parameter_gradients(model, *batch)
        assert all(p.grad is None for p in model.parameters())

    def test_confidence_weights_change_gradients(self, model, batch):
        x, y = batch
        g_uniform, _ = parameter_gradients(model, x, y)
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=np.float32)
        g_weighted, _ = parameter_gradients(model, x, y, w)
        assert any(not np.allclose(a, b)
                   for a, b in zip(g_uniform, g_weighted))

    def test_augmentation_changes_gradients(self, model, batch):
        x, y = batch
        params = AugmentationParams(flip=True, dx=1, dy=0, brightness=0.2,
                                    contrast=1.1, cutout_top=0, cutout_left=0,
                                    cutout_size=2)
        g_plain, _ = parameter_gradients(model, x, y)
        g_aug, _ = parameter_gradients(model, x, y, augmentation=params)
        assert any(not np.allclose(a, b) for a, b in zip(g_plain, g_aug))


class TestInputGradient:
    def test_shape_matches_input(self, model, batch):
        x, y = batch
        grad = input_gradient(model, x, y)
        assert grad.shape == x.shape
        assert np.abs(grad).max() > 0

    def test_matches_numerical_directional_derivative(self, model, batch):
        x, y = batch
        grad = input_gradient(model, x, y)
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(x.shape).astype(np.float32)
        direction /= np.linalg.norm(direction)
        eps = 1e-2

        def loss_at(delta):
            from repro.nn.tensor import no_grad
            with no_grad():
                return cross_entropy(model(Tensor(x + delta * direction)),
                                     y).item()

        numerical = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
        analytic = float((grad * direction).sum())
        assert analytic == pytest.approx(numerical, rel=0.05, abs=1e-4)


class TestDistanceAndGrad:
    def test_zero_distance_for_identical(self, rng):
        grads = [rng.standard_normal((3, 4)).astype(np.float32)]
        dist, direction = distance_and_grad_wrt_gsyn(grads,
                                                     [g.copy() for g in grads])
        assert dist == pytest.approx(0.0, abs=1e-4)
        # At the minimum the cosine-distance gradient is ~0.
        assert np.abs(direction[0]).max() < 1e-3

    def test_direction_reduces_distance(self, rng):
        g_syn = [rng.standard_normal((4, 5)).astype(np.float32)]
        g_real = [rng.standard_normal((4, 5)).astype(np.float32)]
        dist, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
        stepped = [g - 0.5 * d for g, d in zip(g_syn, direction)]
        new_dist = gradient_distance([Tensor(s) for s in stepped],
                                     g_real).item()
        assert new_dist < dist

    def test_l2_metric_gradient(self, rng):
        g_syn = [rng.standard_normal((2, 3)).astype(np.float32)]
        g_real = [rng.standard_normal((2, 3)).astype(np.float32)]
        dist, direction = distance_and_grad_wrt_gsyn(g_syn, g_real,
                                                     metric="l2")
        np.testing.assert_allclose(direction[0],
                                   2.0 * (g_syn[0] - g_real[0]), rtol=1e-4)


def _graph_distance_and_grad(g_syn, g_real, metric):
    """D and grad_{g_syn} D by backpropagating the gradient_distance graph."""
    wrapped = [Tensor(g, requires_grad=True) for g in g_syn]
    distance = gradient_distance(wrapped, list(g_real), metric=metric)
    distance.backward()
    return distance.item(), [t.grad for t in wrapped]


@pytest.fixture
def convnet_gradient_pair():
    """g_syn/g_real of a real ConvNet: 4-D conv weights, 1-D biases and
    norm affines, and a Linear weight gradient that comes out F-ordered."""
    rng = np.random.default_rng(11)
    net = ConvNet(3, 10, 16, width=8, depth=2, rng=rng)
    x_syn = rng.standard_normal((10, 3, 16, 16)).astype(np.float32)
    x_real = rng.standard_normal((24, 3, 16, 16)).astype(np.float32)
    g_syn, _ = parameter_gradients(net, x_syn, np.arange(10))
    g_real, _ = parameter_gradients(
        net, x_real, rng.integers(0, 10, 24),
        rng.uniform(0.3, 1.0, 24).astype(np.float32))
    return g_syn, g_real


class TestClosedFormDistance:
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_equals_the_autodiff_graph_byte_for_byte(self, metric,
                                                     convnet_gradient_pair):
        g_syn, g_real = convnet_gradient_pair
        assert any(g.ndim == 1 for g in g_syn)
        assert any(not g.flags.c_contiguous for g in g_real)
        want_d, want = _graph_distance_and_grad(g_syn, g_real, metric)
        got_d, got = distance_and_grad_wrt_gsyn(g_syn, g_real, metric=metric)
        assert got_d == want_d
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_directions_are_c_contiguous_float32(self, metric,
                                                 convnet_gradient_pair):
        g_syn, g_real = convnet_gradient_pair
        _, direction = distance_and_grad_wrt_gsyn(
            g_syn, [np.asfortranarray(g) for g in g_real], metric=metric)
        for d in direction:
            assert d.dtype == np.float32
            assert d.flags.c_contiguous

    def test_invalid_inputs_raise(self):
        g = [np.ones((2, 3), dtype=np.float32)]
        with pytest.raises(ValueError, match="metric"):
            distance_and_grad_wrt_gsyn(g, g, metric="manhattan")
        with pytest.raises(ValueError, match="lengths"):
            distance_and_grad_wrt_gsyn(g, [])
        with pytest.raises(ValueError, match="empty"):
            distance_and_grad_wrt_gsyn([], [])


class TestFiniteDifference:
    def test_step_size_ignores_the_direction_layout(self):
        # The Eq. 7 step size is a norm over the direction: an F-ordered
        # direction holding the same values must give the same bytes.
        # The norm is a float32 sum per parameter; the 10x1024 Linear
        # direction sums differently in F order often enough that several
        # of these eight steps change when the layout leaks into it.
        rng = np.random.default_rng(1)
        model = ConvNet(3, 10, 16, width=16, depth=1, rng=rng)
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        y = np.arange(4)
        for _ in range(8):
            direction = [rng.standard_normal(p.shape).astype(np.float32)
                         for p in model.parameters()]
            fortran = [np.asfortranarray(d) for d in direction]
            want = finite_difference_matching_grad(model, x, y, direction)
            got = finite_difference_matching_grad(model, x, y, fortran)
            assert got.tobytes() == want.tobytes()

    def test_parameters_restored_exactly(self, model, batch, rng):
        x, y = batch
        before = model.state_dict()
        direction = [rng.standard_normal(p.shape).astype(np.float32)
                     for p in model.parameters()]
        finite_difference_matching_grad(model, x, y, direction)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_zero_direction_returns_zero(self, model, batch):
        x, y = batch
        direction = [np.zeros(p.shape, dtype=np.float32)
                     for p in model.parameters()]
        grad = finite_difference_matching_grad(model, x, y, direction)
        np.testing.assert_array_equal(grad, 0.0)

    def test_direction_length_mismatch_raises(self, model, batch):
        with pytest.raises(ValueError, match="direction"):
            finite_difference_matching_grad(model, *batch, direction=[])

    def test_approximates_true_matching_gradient(self, rng):
        """End-to-end check of Eq. (7) against a numerical ground truth.

        On a tiny dense net we can afford to numerically differentiate
        D(g_syn(X'), g_real) with respect to every synthetic pixel and
        compare with the five-pass finite-difference estimate.
        """
        model = Sequential(Flatten(), Linear(4, 5, rng=rng), ReLU(),
                           Linear(5, 2, rng=rng))
        x_real = rng.standard_normal((4, 4)).astype(np.float32)
        y_real = np.array([0, 1, 0, 1])
        x_syn = rng.standard_normal((2, 4)).astype(np.float32)
        y_syn = np.array([0, 1])

        g_real, _ = parameter_gradients(model, x_real, y_real)

        def distance_of(x_value):
            g_syn, _ = parameter_gradients(model, x_value, y_syn)
            return gradient_distance([Tensor(g) for g in g_syn], g_real).item()

        # Numerical gradient over all synthetic pixels.
        numeric = np.zeros_like(x_syn)
        eps = 1e-2
        for i in np.ndindex(*x_syn.shape):
            perturbed = x_syn.copy()
            perturbed[i] += eps
            up = distance_of(perturbed)
            perturbed[i] -= 2 * eps
            down = distance_of(perturbed)
            numeric[i] = (up - down) / (2 * eps)

        g_syn, _ = parameter_gradients(model, x_syn, y_syn)
        _, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
        estimate = finite_difference_matching_grad(model, x_syn, y_syn,
                                                   direction)
        # Cosine similarity between estimate and ground truth should be high.
        cos = (estimate.ravel() @ numeric.ravel()) / (
            np.linalg.norm(estimate) * np.linalg.norm(numeric) + 1e-12)
        assert cos > 0.9

    def test_step_direction_reduces_distance_end_to_end(self, model, batch,
                                                        rng):
        x_real, y_real = batch
        x_syn = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        y_syn = np.array([0, 1, 2])
        g_real, _ = parameter_gradients(model, x_real, y_real)
        g_syn, _ = parameter_gradients(model, x_syn, y_syn)
        dist_before, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
        pixel_grad = finite_difference_matching_grad(model, x_syn, y_syn,
                                                     direction)
        x_new = x_syn - 0.5 * pixel_grad
        g_new, _ = parameter_gradients(model, x_new, y_syn)
        dist_after = gradient_distance([Tensor(g) for g in g_new],
                                       g_real).item()
        assert dist_after < dist_before
