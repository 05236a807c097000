"""The fused ConvNet block and the lane axis of ``repro.nn``.

``F.conv_block`` must be byte-identical to the per-layer chain
Conv2d -> InstanceNorm2d -> ReLU -> AvgPool2d it replaces: the output, the
input gradient and every parameter gradient, the conv bias's rounding
noise included.  A call on lane-stacked parameters must equal one call per
lane, byte for byte, and so must ``F.linear``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.convnet import ConvNet
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor
from tests.nn import reference


def _block_args(rng, shape, oc, lanes=()):
    c = shape[1]
    return [rng.standard_normal(shape).astype(np.float32),
            rng.standard_normal(lanes + (oc, c, 3, 3)).astype(np.float32) * 0.3,
            rng.standard_normal(lanes + (oc,)).astype(np.float32) * 0.1,
            1 + 0.2 * rng.standard_normal(lanes + (oc,)).astype(np.float32),
            0.1 * rng.standard_normal(lanes + (oc,)).astype(np.float32)]


def _run(fn, arrays, g_seed=1):
    """``fn`` on fresh grad-requiring tensors; the output and the gradient
    of every input after a random backward seed."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    g = np.random.default_rng(g_seed).standard_normal(out.shape)
    out.backward(g.astype(np.float32))
    return [out.data] + [t.grad for t in tensors]


def _chain(x, w, b, gamma, beta):
    h = F.instance_norm2d(F.conv2d(x, w, b, stride=1, padding=1), gamma, beta)
    return F.avg_pool2d(h.relu(), 2)


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"item {i}"


@pytest.mark.parametrize("shape,oc", [
    ((100, 3, 16, 16), 16),  # the herding workload's training batch
    ((5, 3, 32, 32), 16),    # a 32 px micro-batch
    ((2, 3, 32, 32), 16),
    ((3, 16, 8, 8), 16),     # a deeper block
])
def test_block_is_byte_identical_to_the_layer_chain(shape, oc):
    args = _block_args(np.random.default_rng(0), shape, oc)
    _assert_bytes_equal(_run(F.conv_block, args), _run(_chain, args))


def _convnet_step(fused, monkeypatch):
    if not fused:
        monkeypatch.setattr(F, "conv_block",
                            lambda x, w, b, g, be, **kw: _chain(x, w, b, g, be))
    model = ConvNet(3, 10, 32, width=8, depth=3,
                    rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((6, 3, 32, 32)).astype(np.float32),
               requires_grad=True)
    loss = cross_entropy(model(x), rng.integers(0, 10, 6))
    loss.backward()
    monkeypatch.undo()
    return [loss.data, x.grad] + [p.grad for p in model.parameters()]


def test_depth3_convnet_step_is_byte_identical_to_the_layer_chain(
        monkeypatch):
    _assert_bytes_equal(_convnet_step(True, monkeypatch),
                        _convnet_step(False, monkeypatch))


def _seed_chain(x, w, b, gamma, beta):
    h = reference.instance_norm2d(
        reference.conv2d(x, w, b, stride=1, padding=1), gamma, beta)
    return reference.avg_pool2d(h.relu(), 2)


def test_reference_mode_composes_the_seed_layers():
    # The block's output and every gradient match the seed layers'.
    args = _block_args(np.random.default_rng(1), (2, 3, 8, 8), 4)
    got, want = _run(F.conv_block, args), _run(_seed_chain, args)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("shape", [(3, 3, 16, 16), (1, 8, 8, 8)])
def test_two_lane_block_equals_two_single_lane_calls(shape):
    rng = np.random.default_rng(2)
    x, w, b, gamma, beta = _block_args(rng, (2 * shape[0],) + shape[1:], 6,
                                       lanes=(2,))
    stacked = _run(F.conv_block, [x, w, b, gamma, beta])
    n = shape[0]
    g = np.random.default_rng(1).standard_normal(stacked[0].shape)
    for t in range(2):
        rows = slice(t * n, (t + 1) * n)
        tensors = [Tensor(a.copy(), requires_grad=True)
                   for a in (x[rows], w[t], b[t], gamma[t], beta[t])]
        out = F.conv_block(*tensors)
        out.backward(g[rows].astype(np.float32))
        _assert_bytes_equal(
            [out.data, tensors[0].grad] + [p.grad for p in tensors[1:]],
            [stacked[0][rows], stacked[1][rows]]
            + [grad[t] for grad in stacked[2:]])


def test_two_lane_linear_equals_two_single_lane_calls():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 12)).astype(np.float32)
    w = rng.standard_normal((2, 5, 12)).astype(np.float32)
    b = rng.standard_normal((2, 5)).astype(np.float32)
    stacked = _run(F.linear, [x, w, b])
    g = np.random.default_rng(1).standard_normal(stacked[0].shape)
    for t in range(2):
        rows = slice(4 * t, 4 * (t + 1))
        tensors = [Tensor(a.copy(), requires_grad=True)
                   for a in (x[rows], w[t], b[t])]
        out = F.linear(*tensors)
        out.backward(g[rows].astype(np.float32))
        _assert_bytes_equal(
            [out.data, tensors[0].grad, tensors[1].grad, tensors[2].grad],
            [stacked[0][rows], stacked[1][rows], stacked[2][t], stacked[3][t]])
