"""Property-based tests for condensation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.matching import (distance_and_grad_wrt_gsyn,
                                         finite_difference_matching_grad,
                                         parameter_gradients)
from repro.condensation.one_step import OneStepMatcher
from repro.nn import init
from repro.nn.layers import Flatten, Linear, ReLU, Sequential

SETTINGS = dict(max_examples=15, deadline=None)


def make_setup(seed, num_classes=3, ipc=2, dim=6):
    rng = np.random.default_rng(seed)
    buf = SyntheticBuffer(num_classes, ipc, (dim,))
    buf.init_random(rng, scale=0.5)
    x = rng.standard_normal((num_classes * 4, dim)).astype(np.float32)
    y = np.repeat(np.arange(num_classes), 4)
    scratch = Sequential(Flatten(), Linear(dim, 8, rng=rng), ReLU(),
                         Linear(8, num_classes, rng=rng))

    def factory(r):
        init.reinitialize(scratch, r)
        return scratch

    return rng, buf, x, y, factory


@settings(**SETTINGS)
@given(st.integers(0, 10_000))
def test_condense_preserves_class_balance(seed):
    rng, buf, x, y, factory = make_setup(seed)
    labels_before = buf.labels.copy()
    OneStepMatcher(iterations=1, alpha=0.0).condense(
        buf, [0, 1], x, y, None, model_factory=factory, rng=rng)
    np.testing.assert_array_equal(buf.labels, labels_before)


@settings(**SETTINGS)
@given(st.integers(0, 10_000))
def test_condense_outputs_stay_finite(seed):
    rng, buf, x, y, factory = make_setup(seed)
    OneStepMatcher(iterations=3, alpha=0.0, syn_lr=0.5).condense(
        buf, [0, 1, 2], x, y, None, model_factory=factory, rng=rng)
    assert np.isfinite(buf.images).all()


@settings(**SETTINGS)
@given(st.integers(0, 10_000))
def test_condense_deterministic_given_rng(seed):
    results = []
    for _ in range(2):
        rng, buf, x, y, factory = make_setup(seed)
        OneStepMatcher(iterations=2, alpha=0.0).condense(
            buf, [0, 1], x, y, None, model_factory=factory,
            rng=np.random.default_rng(seed + 1))
        results.append(buf.images.copy())
    np.testing.assert_array_equal(results[0], results[1])


@settings(**SETTINGS)
@given(st.integers(0, 10_000))
def test_fd_gradient_shape_matches_input(seed):
    rng = np.random.default_rng(seed)
    model = Sequential(Flatten(), Linear(5, 6, rng=rng), ReLU(),
                       Linear(6, 2, rng=rng))
    x = rng.standard_normal((3, 5)).astype(np.float32)
    y = np.array([0, 1, 0])
    direction = [rng.standard_normal(p.shape).astype(np.float32) * 0.1
                 for p in model.parameters()]
    grad = finite_difference_matching_grad(model, x, y, direction)
    assert grad.shape == x.shape
    assert np.isfinite(grad).all()


@settings(**SETTINGS)
@given(st.integers(0, 10_000))
def test_distance_gradient_is_descent_direction(seed):
    rng = np.random.default_rng(seed)
    g_syn = [rng.standard_normal((3, 4)).astype(np.float32)]
    g_real = [rng.standard_normal((3, 4)).astype(np.float32)]
    dist, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
    if np.abs(direction[0]).max() < 1e-7:
        return  # already at a stationary point
    from repro.nn.losses import gradient_distance
    from repro.nn.tensor import Tensor
    stepped = [g - 0.01 * d for g, d in zip(g_syn, direction)]
    new_dist = gradient_distance([Tensor(s) for s in stepped], g_real).item()
    assert new_dist <= dist + 1e-5


@settings(**SETTINGS)
@given(st.integers(0, 10_000), st.sampled_from([0.1, 1.0, 10.0]))
def test_gradient_scale_invariance_of_cosine(seed, scale):
    """Cosine distance ignores the gradient magnitude (only direction)."""
    rng = np.random.default_rng(seed)
    g_syn = [rng.standard_normal((2, 5)).astype(np.float32) + 0.1]
    g_real = [rng.standard_normal((2, 5)).astype(np.float32) + 0.1]
    d1, _ = distance_and_grad_wrt_gsyn(g_syn, g_real)
    d2, _ = distance_and_grad_wrt_gsyn([g * scale for g in g_syn], g_real)
    assert d1 == pytest.approx(d2, abs=5e-3)


@settings(**SETTINGS)
@given(st.integers(0, 10_000))
def test_parameter_gradients_linear_in_weights(seed):
    """Per-sample CE weights act linearly on the summed gradient."""
    rng = np.random.default_rng(seed)
    model = Sequential(Flatten(), Linear(4, 5, rng=rng), ReLU(),
                       Linear(5, 2, rng=rng))
    x = rng.standard_normal((4, 4)).astype(np.float32)
    y = np.array([0, 1, 0, 1])
    g_full, _ = parameter_gradients(model, x, y,
                                    np.ones(4, dtype=np.float32))
    g_half, _ = parameter_gradients(model, x, y,
                                    np.full(4, 0.5, dtype=np.float32))
    for gf, gh in zip(g_full, g_half):
        np.testing.assert_allclose(gh, 0.5 * gf, rtol=1e-4, atol=1e-6)
