"""Equivalence tests for the kernel layer.

The ops (im2col, col2im, matmul contractions) must match the preserved
seed implementations in :mod:`tests.nn.reference` — forward values and
every gradient — to 1e-5 across a grid of odd sizes, strides, and
paddings, and for a full ConvNet training step at the shapes the stream
benchmark trains on.  im2col and col2im themselves must match the seed
kernels byte for byte: the stream's buffer bytes depend on col2im's tap
order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.convnet import ConvNet
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor
from tests.nn import reference

TOL = dict(rtol=1e-5, atol=1e-5)


def _conv_case(rng, n, c, h, w, oc, k, stride, pad, *, bias=True,
               conv2d=F.conv2d):
    """Run ``conv2d`` fwd+bwd; return out, dx, dw, db."""
    x = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32),
               requires_grad=True)
    wt = Tensor(rng.standard_normal((oc, c, k, k)).astype(np.float32),
                requires_grad=True)
    bt = (Tensor(rng.standard_normal((oc,)).astype(np.float32),
                 requires_grad=True) if bias else None)
    out = conv2d(x, wt, bt, stride=stride, padding=pad)
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    return (out.data, x.grad, wt.grad,
            None if bt is None else bt.grad)


CONV_GRID = [
    # (n, c, h, w, oc, k, stride, pad)
    (2, 3, 8, 8, 4, 3, 1, 1),
    (1, 1, 5, 5, 2, 3, 1, 0),    # odd size, no padding
    (2, 2, 7, 7, 3, 3, 2, 1),    # odd size, stride 2
    (3, 4, 9, 9, 5, 3, 2, 0),    # odd size, stride 2, no padding
    (1, 2, 6, 6, 2, 2, 2, 0),    # even kernel
    (2, 3, 11, 11, 4, 5, 1, 1),  # large kernel on odd size
]


# The im2col/col2im geometries: CONV_GRID's as (n, c, h, w, k, stride,
# pad), then the retrain shapes of the two stream benchmarks' ConvNets
# (the 8x8 second block of a 16 px herding batch, a 32 px deco batch).
KERNEL_GRID = [case[:4] + case[5:] for case in CONV_GRID] + [
    (18, 16, 8, 8, 3, 1, 1),
    (5, 3, 32, 32, 3, 1, 1),
]


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint32),
                                  np.ascontiguousarray(want).view(np.uint32))


class TestConvEquivalence:
    @pytest.mark.parametrize("case", CONV_GRID)
    def test_fast_matches_seed(self, rng, case):
        seed = rng.integers(0, 2**31)
        fast = _conv_case(np.random.default_rng(seed), *case)
        ref = _conv_case(np.random.default_rng(seed), *case,
                         conv2d=reference.conv2d)
        for got, want in zip(fast, ref):
            np.testing.assert_allclose(got, want, **TOL)

    def test_no_bias(self, rng):
        seed = rng.integers(0, 2**31)
        fast = _conv_case(np.random.default_rng(seed), 2, 3, 8, 8, 4, 3, 1, 1,
                          bias=False)
        ref = _conv_case(np.random.default_rng(seed), 2, 3, 8, 8, 4, 3, 1, 1,
                         bias=False, conv2d=reference.conv2d)
        for got, want in zip(fast[:3], ref[:3]):
            np.testing.assert_allclose(got, want, **TOL)

    @pytest.mark.parametrize("case", KERNEL_GRID)
    def test_im2col_primitives_match(self, rng, case):
        n, c, h, w, k, stride, pad = case
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        cols = kernels.im2col(x, k, k, stride, pad)
        ref = reference.im2col(x, k, k, stride, pad)
        assert cols.flags.c_contiguous
        assert_same_bytes(cols, ref)

        # col2im is the conv input gradient: the seed col2im of the seed's
        # patch gradients w2.T @ g
        oc = 4
        wt = rng.standard_normal((oc, c, k, k)).astype(np.float32)
        oh, ow = kernels.conv_out_size(h, w, k, k, stride, pad)
        g = rng.standard_normal((n, oc, oh, ow)).astype(np.float32)
        g[rng.random(g.shape) < 0.1] = -0.0  # signed zeros must not leak
        dx = kernels.col2im(g, wt, (n, c, h, w), stride, pad)
        assert dx.flags.c_contiguous
        dcols = np.matmul(wt.reshape(oc, -1).T, g.reshape(n, oc, -1))
        assert_same_bytes(dx, reference.col2im(dcols, (n, c, h, w), k, k,
                                               stride, pad))


def _reference_logits(model, x):
    """The ConvNet forward composed from the seed ops on ``model``'s own
    parameters: Conv -> InstanceNorm -> ReLU -> AvgPool per block, then the
    linear head."""
    layers = model.encoder.layers
    for i in range(0, len(layers) - 1, 4):
        conv, norm, _, pool = layers[i:i + 4]
        h = reference.conv2d(x, conv.weight, conv.bias, stride=conv.stride,
                             padding=conv.padding)
        h = reference.instance_norm2d(h, norm.gamma, norm.beta, eps=norm.eps)
        x = reference.avg_pool2d(h.relu(), pool.kernel_size)
    head = model.classifier
    return x.flatten(1).matmul(head.weight.T) + head.bias


def _training_step(n, c, hw, classes, width, depth, *, seed_ops=False):
    """Logits and every parameter gradient of one ConvNet CE step, through
    the model's own ops or the seed ops."""
    rng = np.random.default_rng(n * hw)
    model = ConvNet(c, classes, hw, width=width, depth=depth,
                    rng=np.random.default_rng(3))
    x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    y = rng.integers(0, classes, n)
    if seed_ops:
        logits = _reference_logits(model, Tensor(x))
        log_probs = reference.log_softmax(logits, axis=1)
        (-log_probs[np.arange(n), y]).mean().backward()
    else:
        logits = model(Tensor(x))
        cross_entropy(logits, y).backward()
    return [logits.data] + [p.grad for p in model.parameters()]


class TestTrainingStepEquivalence:
    @pytest.mark.parametrize("n,c,hw", [(100, 3, 16), (20, 3, 32)])
    def test_convnet_step_matches_seed(self, n, c, hw):
        fast = _training_step(n, c, hw, 10, 16, 2)
        ref = _training_step(n, c, hw, 10, 16, 2, seed_ops=True)
        assert len(fast) == len(ref)
        for got, want in zip(fast, ref):
            np.testing.assert_allclose(got, want, **TOL)


class TestOtherOpsEquivalence:
    # The ids date from when max pooling was the third case.
    @pytest.mark.parametrize("op,shape", [
        pytest.param("instance_norm2d", (3, 4, 6, 6),
                     id="instance_norm2d-shape0"),
        pytest.param("avg_pool2d", (2, 3, 8, 8), id="avg_pool2d-shape1"),
        pytest.param("log_softmax", (5, 7), id="log_softmax-shape3"),
        pytest.param("softmax", (5, 7), id="softmax-shape4"),
    ])
    def test_fast_matches_seed(self, rng, op, shape):
        data = rng.standard_normal(shape).astype(np.float32)
        g = rng.standard_normal(data.shape).astype(np.float32) \
            if op in ("log_softmax", "softmax") else None
        results = []
        for module in (F, reference):
            x = Tensor(data.copy(), requires_grad=True)
            out = getattr(module, op)(x)
            out.backward(np.ones_like(out.data) if g is None
                         else g[:out.shape[0], :out.shape[1]])
            results.append((out.data, x.grad))
        np.testing.assert_allclose(results[0][0], results[1][0], **TOL)
        np.testing.assert_allclose(results[0][1], results[1][1], **TOL)

    def test_requires_grad_false_skips_backward_state(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        out = F.avg_pool2d(x, 2)
        assert not out.requires_grad
