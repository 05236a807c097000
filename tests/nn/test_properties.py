"""Property-based tests (hypothesis) for engine invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import functional as F
from repro.nn.losses import cross_entropy, gradient_distance
from repro.nn.tensor import Tensor

SETTINGS = dict(max_examples=30, deadline=None)


def small_arrays(shape):
    return hnp.arrays(np.float32, shape,
                      elements=st.floats(-3.0, 3.0, width=32))


@settings(**SETTINGS)
@given(small_arrays((3, 4)), small_arrays((3, 4)))
def test_addition_commutes(a, b):
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    np.testing.assert_array_equal(left, right)


@settings(**SETTINGS)
@given(small_arrays((2, 5)))
def test_sum_gradient_is_ones(a):
    t = Tensor(a, requires_grad=True)
    t.sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(a))


@settings(**SETTINGS)
@given(small_arrays((4, 3)))
def test_mean_gradient_is_uniform(a):
    t = Tensor(a, requires_grad=True)
    t.mean().backward()
    np.testing.assert_allclose(t.grad, np.full_like(a, 1.0 / a.size), rtol=1e-5)


@settings(**SETTINGS)
@given(small_arrays((3, 6)))
def test_softmax_is_distribution(a):
    out = F.softmax(Tensor(a), axis=1).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)


@settings(**SETTINGS)
@given(small_arrays((3, 6)), st.floats(0.1, 5.0))
def test_softmax_shift_invariance(a, shift):
    base = F.softmax(Tensor(a), axis=1).data
    shifted = F.softmax(Tensor(a + np.float32(shift)), axis=1).data
    np.testing.assert_allclose(base, shifted, atol=1e-5)


@settings(**SETTINGS)
@given(small_arrays((2, 4)))
def test_relu_gradient_never_negative_path(a):
    t = Tensor(a, requires_grad=True)
    t.relu().sum().backward()
    assert ((t.grad == 0) | (t.grad == 1)).all()
    assert (t.grad[a > 0] == 1).all()


@settings(**SETTINGS)
@given(small_arrays((2, 3, 4, 4)))
def test_avg_pool_preserves_mean(a):
    pooled = F.avg_pool2d(Tensor(a), 2).data
    np.testing.assert_allclose(pooled.mean(), a.mean(), rtol=1e-3, atol=1e-5)


@settings(**SETTINGS)
@given(small_arrays((3, 5)))
def test_l2_normalize_is_idempotent(a):
    once = F.l2_normalize(Tensor(a + 0.1), axis=1).data
    twice = F.l2_normalize(Tensor(once), axis=1).data
    np.testing.assert_allclose(once, twice, atol=1e-4)


@settings(**SETTINGS)
@given(small_arrays((4, 3)), st.integers(0, 2))
def test_cross_entropy_nonnegative(logits, label):
    labels = np.full(len(logits), label, dtype=np.int64)
    loss = cross_entropy(Tensor(logits), labels).item()
    assert loss >= -1e-6


@settings(**SETTINGS)
@given(small_arrays((3, 4)))
def test_gradient_distance_self_is_zero(g):
    dist = gradient_distance([Tensor(g + 0.01)], [g + 0.01]).item()
    assert abs(dist) < 1e-3


@settings(**SETTINGS)
@given(small_arrays((3, 4)), small_arrays((3, 4)))
def test_gradient_distance_symmetric_in_value(a, b):
    d1 = gradient_distance([Tensor(a)], [b]).item()
    d2 = gradient_distance([Tensor(b)], [a]).item()
    assert abs(d1 - d2) < 1e-3


@settings(**SETTINGS)
@given(small_arrays((3, 4)), small_arrays((3, 4)))
def test_cosine_distance_bounded(a, b):
    d = gradient_distance([Tensor(a)], [b], metric="cosine").item()
    rows = a.shape[0]
    assert -1e-3 <= d <= 2.0 * rows + 1e-3


@settings(**SETTINGS)
@given(small_arrays((2, 6)))
def test_reshape_preserves_sum_gradient(a):
    t = Tensor(a, requires_grad=True)
    t.reshape(3, 4).sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(a))


@settings(**SETTINGS)
@given(small_arrays((2, 2, 4, 4)), st.integers(1, 3))
def test_pad2d_roundtrip_values(a, pad):
    padded = Tensor(a).pad2d(pad).data
    inner = padded[:, :, pad:-pad, pad:-pad]
    np.testing.assert_array_equal(inner, a)
    np.testing.assert_allclose(padded.sum(), a.sum(), rtol=1e-5, atol=1e-4)
