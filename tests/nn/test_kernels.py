"""Equivalence and lifecycle tests for the kernel layer.

The ops (plan-cached im2col, slice-table col2im, matmul contractions)
must match the preserved seed implementations in :mod:`repro.nn.reference`
— forward values and every gradient — to 1e-5 across a grid of odd
sizes, strides, and paddings, and for a full ConvNet training step at the
shapes the stream benchmark trains on.  The plan cache must honor its LRU
bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import kernels, reference
from repro.nn.convnet import ConvNet
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor

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

    def test_im2col_primitives_match(self, rng):
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        plan = kernels.get_conv_plan(2, 3, 7, 7, 3, 3, 2, 1)
        cols = kernels.im2col(x, plan).reshape(plan.cols_shape)
        ref = kernels.im2col_reference(x, 3, 3, 2, 1)
        np.testing.assert_array_equal(np.asarray(cols), ref)
        d = rng.standard_normal(ref.shape).astype(np.float32)
        np.testing.assert_allclose(
            kernels.col2im(d, plan),
            kernels.col2im_reference(d, (2, 3, 7, 7), 3, 3, 2, 1), **TOL)


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


class TestPlanCache:
    def test_lru_bound_is_enforced(self):
        kernels.clear_plan_cache()
        old_limit = kernels.plan_cache_info()["limit"]
        try:
            kernels.set_plan_cache_limit(3)
            for n in range(1, 8):
                kernels.get_conv_plan(n, 1, 6, 6, 3, 3, 1, 1)
            info = kernels.plan_cache_info()
            assert info["size"] <= 3
        finally:
            kernels.set_plan_cache_limit(old_limit)
            kernels.clear_plan_cache()

    def test_plans_are_reused(self):
        kernels.clear_plan_cache()
        a = kernels.get_conv_plan(2, 3, 8, 8, 3, 3, 1, 1)
        b = kernels.get_conv_plan(2, 3, 8, 8, 3, 3, 1, 1)
        assert a is b
        assert kernels.plan_cache_info()["hits"] >= 1

    def test_repeated_conv_shapes_hit_the_cache(self, rng):
        """The LRU must actually *hit* on the conv shapes the ops replay —
        not merely stay bounded — and count evictions when it overflows."""
        kernels.clear_plan_cache()
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        repeats = 4
        for _ in range(repeats):
            F.conv2d(x, w, stride=1, padding=1)
        info = kernels.plan_cache_info()
        assert info["misses"] == 1, info
        assert info["hits"] == repeats - 1, info
        assert info["evictions"] == 0, info
        # hit rate for a steady-state shape must approach 1
        assert info["hits"] / (info["hits"] + info["misses"]) >= 0.5

    def test_eviction_counter_increments(self):
        kernels.clear_plan_cache()
        old_limit = kernels.plan_cache_info()["limit"]
        try:
            kernels.set_plan_cache_limit(2)
            for n in range(1, 5):
                kernels.get_conv_plan(n, 1, 6, 6, 3, 3, 1, 1)
            assert kernels.plan_cache_info()["evictions"] == 2
        finally:
            kernels.set_plan_cache_limit(old_limit)
            kernels.clear_plan_cache()

    def test_lru_evicts_oldest(self):
        kernels.clear_plan_cache()
        old_limit = kernels.plan_cache_info()["limit"]
        try:
            kernels.set_plan_cache_limit(2)
            a = kernels.get_conv_plan(1, 1, 6, 6, 3, 3, 1, 1)
            kernels.get_conv_plan(2, 1, 6, 6, 3, 3, 1, 1)
            kernels.get_conv_plan(3, 1, 6, 6, 3, 3, 1, 1)  # evicts a
            a2 = kernels.get_conv_plan(1, 1, 6, 6, 3, 3, 1, 1)
            assert a2 is not a
        finally:
            kernels.set_plan_cache_limit(old_limit)
            kernels.clear_plan_cache()
