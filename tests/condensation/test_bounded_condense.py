"""DECO condensation runs in bounded micro-batches.

Every matching pass (``pass.g_real``, ``pass.g_syn``, the ±ε FD passes and
the Eq. 8 discrimination pass) runs over
:func:`repro.utils.batching.micro_batches` slices, so one condense step
holds about as much transient memory as one training step, whatever the
segment or buffer size.  Slicing changes results only by float summation
order, and not at all when a pass fits in one slice.

Whole condense runs are compared over one iteration with the L2 gradient
distance.  Under the paper's cosine distance any change of summation order
shows up at full size: the conv biases sit ahead of instance norm, so their
gradients are pure rounding noise, and the cosine scales that noise into
O(1) components of the Eq. 7 direction.  Over several iterations the
rounding-level drift of the pixels also moves which ReLUs the ±ε passes
straddle, and each such kink adds a spike to the FD gradient.
"""

import collections
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.matching import input_gradient, parameter_gradients
from repro.condensation.one_step import OneStepMatcher
from repro.core.training import train_model
from repro.nn.convnet import ConvNet
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy, feature_discrimination_loss
from repro.nn.tensor import Tensor
from repro.utils import batching

MIB = 1 << 20


def _segment(classes=10, ipc=2, shape=(3, 32, 32), real=30, seed=0):
    rng = np.random.default_rng(seed)
    buf = SyntheticBuffer(classes, ipc, shape)
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((real, *shape)).astype(np.float32)
    real_y = rng.integers(0, classes, real)
    real_w = rng.uniform(0.3, 1.0, real).astype(np.float32)
    return buf, real_x, real_y, real_w


def _net(shape, classes, rng, width=16):
    return ConvNet(shape[0], max(classes, 2), shape[-1], width=width,
                   depth=2, rng=rng)


def _condense(buf, real_x, real_y, real_w, *, iterations=1, alpha=0.1,
              width=16, metric="l2"):
    shape, classes = buf.image_shape, buf.num_classes
    matcher = OneStepMatcher(iterations=iterations, alpha=alpha,
                             metric=metric)
    stats = matcher.condense(
        buf, list(range(classes)), real_x, real_y, real_w,
        model_factory=lambda r: _net(shape, classes, r, width),
        rng=np.random.default_rng(7),
        deployed_model=_net(shape, classes, np.random.default_rng(5), width))
    return buf.images.copy(), stats


class TestCondenseMemory:
    def test_condense_peak_is_bounded_by_the_training_peak(self):
        buf, real_x, real_y, real_w = _segment()
        deployed = _net(buf.image_shape, 10, np.random.default_rng(5))
        # Warm up first, so one-time allocations stay out of the trace.
        _condense(buf, real_x, real_y, real_w, metric="cosine")
        train_model(deployed, real_x, real_y, epochs=1, lr=1e-2, rng=3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _condense(buf, real_x, real_y, real_w, iterations=2,
                      metric="cosine")
            condense_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            train_model(deployed, real_x, real_y, epochs=1, lr=1e-2, rng=3)
            train_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert train_peak > 0.5 * MIB
        assert condense_peak <= 2 * train_peak


class TestSlicedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sliced_condense_matches_one_slice(self, monkeypatch, seed):
        buf, real_x, real_y, real_w = _segment(seed=seed)
        assert len(batching.micro_batches(real_x)) > 1
        assert len(batching.micro_batches(buf.images, lanes=2)) > 1
        before = buf.images.copy()
        sliced, sliced_stats = _condense(buf, real_x, real_y, real_w)

        monkeypatch.setattr(batching, "MICRO_BATCH_BYTES", 1 << 40)
        whole, whole_stats = _condense(*_segment(seed=seed))

        assert np.abs(whole - before).max() > 1e-2
        np.testing.assert_allclose(sliced, whole, rtol=0, atol=1e-5)
        assert sliced_stats.matching_loss == pytest.approx(
            whole_stats.matching_loss, rel=1e-4)
        assert sliced_stats.extra["discrimination_loss"] == pytest.approx(
            whole_stats.extra["discrimination_loss"], rel=1e-4)
        assert sliced_stats.extra["fused"] == whole_stats.extra["fused"] == 1

    def test_one_slice_passes_are_the_whole_batch_bytes(self):
        buf, real_x, real_y, real_w = _segment(shape=(3, 8, 8), real=12)
        model = _net(buf.image_shape, 10, np.random.default_rng(0))
        assert len(batching.micro_batches(real_x)) == 1

        grads, _ = parameter_gradients(model, real_x, real_y, real_w)
        model.zero_grad()
        cross_entropy(model(Tensor(real_x)), real_y,
                      weights=real_w).backward()
        for g, p in zip(grads, model.parameters()):
            np.testing.assert_array_equal(g, p.grad)
        model.zero_grad()

        x = Tensor(real_x, requires_grad=True)
        cross_entropy(model(x), real_y).backward()
        np.testing.assert_array_equal(
            input_gradient(model, real_x, real_y), x.grad)
        model.zero_grad()

    def test_sliced_gradients_match_the_whole_batch(self, rng):
        x = rng.standard_normal((23, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, 23)
        w = rng.uniform(0.3, 1.0, 23).astype(np.float32)
        model = _net(x.shape[1:], 4, np.random.default_rng(0))
        assert len(batching.micro_batches(x)) > 1

        grads, loss = parameter_gradients(model, x, y, w)
        x_grad = input_gradient(model, x, y, w)
        model.zero_grad()
        xt = Tensor(x, requires_grad=True)
        whole = cross_entropy(model(xt), y, weights=w)
        whole.backward()
        assert loss == pytest.approx(whole.item(), rel=1e-5)
        for g, p in zip(grads, model.parameters()):
            np.testing.assert_allclose(g, p.grad, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(x_grad, xt.grad, rtol=1e-4, atol=1e-8)
        model.zero_grad()


class TestDiscriminationPass:
    # The ids date from when a batch-statistics encoder was a second
    # deployed model.
    @pytest.mark.parametrize("active", [[0], [0, 1]],
                             ids=["active0-convnet", "active1-convnet"])
    def test_sliced_step_follows_the_one_graph_gradient(self, active):
        # Two classes, so each active row's negative class is the other
        # one and the Eq. 8 terms are fixed.  Its first SGD step moves the
        # active rows by lr * alpha * grad on top of the matching step.
        shape = (3, 32, 32)
        segment = dict(classes=2, ipc=6, shape=shape, real=8)
        alpha, lr = 0.5, 0.1

        def make_deployed():
            return _net(shape, 2, np.random.default_rng(5))

        def step(alpha):
            buf, real_x, real_y, real_w = _segment(**segment)
            OneStepMatcher(iterations=1, alpha=alpha, syn_lr=lr,
                           metric="l2").condense(
                buf, active, real_x, real_y, real_w,
                model_factory=lambda r: _net(shape, 2, r),
                rng=np.random.default_rng(7),
                deployed_model=make_deployed())
            return buf.images.copy()

        buf = _segment(**segment)[0]
        rows = buf.indices_for_classes(active)
        # the feature pass runs in slices
        assert len(batching.micro_batches(buf.images)) > 1
        x = Tensor(buf.images, requires_grad=True)
        feature_discrimination_loss(
            make_deployed().features(x), buf.labels, rows,
            np.random.default_rng(0), negative_classes=1 - buf.labels[rows],
            temperature=0.07).backward()
        expected = x.grad[rows]

        moved = (step(0.0) - step(alpha))[rows] / (lr * alpha)
        assert np.abs(expected).max() > 1e-3
        np.testing.assert_allclose(moved, expected, rtol=0,
                                   atol=1e-3 * np.abs(expected).max())


class TestDegenerateInputs:
    def test_single_real_row(self, monkeypatch):
        buf, real_x, real_y, real_w = _segment(real=1)
        before = buf.images.copy()
        sliced, stats = _condense(buf, real_x, real_y, real_w)
        assert stats.iterations == 1
        assert np.isfinite(sliced).all()
        assert not np.array_equal(sliced, before)
        monkeypatch.setattr(batching, "MICRO_BATCH_BYTES", 1 << 40)
        whole, _ = _condense(*_segment(real=1))
        np.testing.assert_allclose(sliced, whole, rtol=0, atol=1e-5)

    def test_synthetic_rows_larger_than_one_slice(self, monkeypatch):
        # One 1x128x128 float32 row is the whole 64 KiB cap, so every pass
        # (and the fused pass at two lanes per row) runs row by row.
        segment = dict(classes=3, ipc=2, shape=(1, 128, 128), real=4)
        buf, real_x, real_y, real_w = _segment(**segment)
        assert batching.micro_batches(buf.images, lanes=2) == [
            slice(i, i + 1) for i in range(len(buf.images))]
        sliced, stats = _condense(buf, real_x, real_y, real_w, width=4)
        assert stats.extra["fused"] == 1
        monkeypatch.setattr(batching, "MICRO_BATCH_BYTES", 1 << 40)
        whole, _ = _condense(*_segment(**segment), width=4)
        assert np.isfinite(sliced).all()
        np.testing.assert_allclose(sliced, whole, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("classes,ipc", [(1, 3), (3, 1)])
    def test_no_discrimination_pairs_contribute_zero(self, classes, ipc):
        # One class has no negatives; one image per class has no positives.
        # Either way Eq. 8 has no pairs and the step is the matching step.
        segment = dict(classes=classes, ipc=ipc, real=12)
        with_disc, stats = _condense(*_segment(**segment))
        without, _ = _condense(*_segment(**segment), alpha=0.0)
        assert stats.extra.get("discrimination_loss", 0.0) == 0.0
        np.testing.assert_array_equal(with_disc, without)


class _CountingEncoder(Module):
    """A deployed model that counts how often each input row (by its
    bytes) reaches ``features``."""

    def __init__(self, net):
        super().__init__()
        self.net = net
        self.seen = collections.Counter()

    def features(self, x):
        self.seen.update(row.tobytes() for row in x.data)
        return self.net.features(x)

    def forward(self, x):
        return self.net(x)


class TestPassiveFeatures:
    """The rows of the involved classes that are not being optimized keep
    their pixels, and the deployed model its weights, for a whole
    ``condense`` call, so each is encoded at most once per call."""

    SEGMENT = dict(classes=4, ipc=3, shape=(3, 16, 16), real=16)

    def _condense(self, buf, real, deployed, *, matcher=None, seed=7):
        matcher = matcher or OneStepMatcher(iterations=6, alpha=0.5)
        shape = buf.image_shape
        return matcher.condense(
            buf, [1], *real, model_factory=lambda r: _net(shape, 4, r, 8),
            rng=np.random.default_rng(seed), deployed_model=deployed)

    def test_buffer_bytes_match_the_every_iteration_encoding(self):
        buf, *real = _segment(**self.SEGMENT)
        stats = self._condense(
            buf, real, _net(buf.image_shape, 4, np.random.default_rng(5), 8))
        assert stats.iterations == 6 and stats.extra["discrimination_loss"]
        # The buffer a condense call left when the deployed encoder re-ran
        # on every involved row in each of the six iterations.
        digest = hashlib.sha256(buf.images.tobytes()).hexdigest()
        assert digest == ("844d2f048bebcec9657688101cefeaca"
                          "6e00328e0186bfc5377acab6abb4ebc5")

    def test_each_passive_row_is_encoded_at_most_once_per_call(self):
        buf, *real = _segment(**self.SEGMENT)
        passive = np.setdiff1d(np.arange(len(buf.images)),
                               buf.indices_for_classes([1]))
        passive_rows = {buf.images[r].tobytes() for r in passive}
        deployed = _CountingEncoder(
            _net(buf.image_shape, 4, np.random.default_rng(5), 8))
        for _ in range(2):
            deployed.seen.clear()
            self._condense(buf, real, deployed)
            counts = [deployed.seen[row] for row in passive_rows]
            # Six iterations draw the negative classes of the three active
            # rows from the other three classes, so some passive rows are
            # involved; none of them is encoded twice.
            assert max(counts) == 1
            assert sum(deployed.seen.values()) > sum(counts)

    def test_a_later_call_encodes_with_the_new_weights(self):
        def run(swap_in_place):
            buf, *real = _segment(**self.SEGMENT)
            matcher = OneStepMatcher(iterations=3, alpha=0.5)
            deployed = _net(buf.image_shape, 4, np.random.default_rng(5), 8)
            self._condense(buf, real, deployed, matcher=matcher)
            retrained = _net(buf.image_shape, 4, np.random.default_rng(6), 8)
            if swap_in_place:
                deployed.load_state_dict(retrained.state_dict())
            else:
                matcher, deployed = (OneStepMatcher(iterations=3, alpha=0.5),
                                     retrained)
            self._condense(buf, real, deployed, matcher=matcher, seed=8)
            return buf.images.copy()

        assert run(True).tobytes() == run(False).tobytes()
