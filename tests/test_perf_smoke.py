"""Wall-clock smoke tests for the kernel hot path.

Not benchmarks — the real numbers live in ``benchmarks/micro`` — these are
cheap tripwires that fail loudly if a change makes the condensation hot
path pathologically slow, makes the fast kernels lose to the preserved
seed implementations outright, or lets a strided activation layout back
into the training step.  Bounds are deliberately generous so they stay
green on slow CI machines.

Run just these with ``pytest -m perf_smoke``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.one_step import OneStepMatcher
from repro.nn import functional as F
from repro.nn.convnet import ConvNet
from repro.nn.tensor import Tensor
from repro.obs import ListSink
from tests.nn import reference


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of(fn, repeats=3):
    fn()  # warm up
    return min(_timed(fn) for _ in range(repeats))


@pytest.mark.perf_smoke
def test_tiny_condense_segment_is_quick():
    rng = np.random.default_rng(0)
    buf = SyntheticBuffer(3, 2, (3, 8, 8))
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((24, 3, 8, 8)).astype(np.float32)
    real_y = rng.integers(0, 3, 24)
    matcher = OneStepMatcher(iterations=2, alpha=0.1, batch_size=16)
    factory = lambda r: ConvNet(3, 3, 8, width=8, depth=2, rng=r)
    deployed = ConvNet(3, 3, 8, width=8, depth=2, rng=np.random.default_rng(5))

    t0 = time.perf_counter()
    stats = matcher.condense(buf, [0, 1, 2], real_x, real_y, None,
                             model_factory=factory,
                             rng=np.random.default_rng(1),
                             deployed_model=deployed)
    elapsed = time.perf_counter() - t0

    assert stats.iterations == 2
    # ~60ms on a laptop core; 30s means something is catastrophically wrong.
    assert elapsed < 30.0, f"tiny condense segment took {elapsed:.1f}s"


@pytest.mark.perf_smoke
def test_fast_conv_not_slower_than_seed():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 8, 16, 16)).astype(np.float32)
    w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)

    fast = _best_of(lambda: F.conv2d(Tensor(x), Tensor(w), stride=1,
                                     padding=1))
    seed = _best_of(lambda: reference.conv2d(Tensor(x), Tensor(w), stride=1,
                                             padding=1))
    # The fast path wins ~3x here; allow wide headroom for noisy machines.
    assert fast <= seed * 1.5, (
        f"fast conv2d regressed: {fast * 1e3:.2f}ms vs seed {seed * 1e3:.2f}ms")

    # One ConvNet block forward+backward at the herding workload's retrain
    # shape (18 rows, 16 -> 16 channels, 8x8), next to the four seed ops.
    x = Tensor(rng.standard_normal((18, 16, 8, 8)).astype(np.float32),
               requires_grad=True)
    params = [Tensor(a.astype(np.float32), requires_grad=True) for a in (
        rng.standard_normal((16, 16, 3, 3)), rng.standard_normal(16),
        1 + 0.1 * rng.standard_normal(16), rng.standard_normal(16))]

    def seed_block(x, w, b, gamma, beta):
        h = reference.instance_norm2d(
            reference.conv2d(x, w, b, stride=1, padding=1), gamma, beta)
        return reference.avg_pool2d(h.relu(), 2)

    def fwd_bwd(block):
        def run():
            out = block(x, *params)
            out.backward(np.ones_like(out.data))
            for t in (x, *params):
                t.zero_grad()
        return run

    fast = _best_of(fwd_bwd(F.conv_block), repeats=10)
    seed = _best_of(fwd_bwd(seed_block), repeats=10)
    assert fast <= seed * 1.5, (
        f"fast conv_block regressed: {fast * 1e3:.2f}ms vs seed "
        f"{seed * 1e3:.2f}ms")


@pytest.mark.perf_smoke
def test_telemetry_overhead_on_condense_segment_is_small():
    """A telemetry-enabled condense segment must stay within ~5% of the
    disabled path (plus a small absolute allowance for timer noise on this
    sub-100ms workload): spans are singleton no-ops when disabled, and
    when enabled each pass adds only a clock read and one dict per event.
    """
    rng = np.random.default_rng(0)
    buf = SyntheticBuffer(3, 2, (3, 8, 8))
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((24, 3, 8, 8)).astype(np.float32)
    real_y = rng.integers(0, 3, 24)
    matcher = OneStepMatcher(iterations=4, alpha=0.1, batch_size=16)
    factory = lambda r: ConvNet(3, 3, 8, width=8, depth=2, rng=r)
    deployed = ConvNet(3, 3, 8, width=8, depth=2, rng=np.random.default_rng(5))

    def segment():
        matcher.condense(buf, [0, 1, 2], real_x, real_y, None,
                         model_factory=factory,
                         rng=np.random.default_rng(1),
                         deployed_model=deployed)

    obs.shutdown()
    segment()  # warm up before either timed mode
    disabled_times, enabled_times = [], []
    try:
        for _ in range(5):  # interleave so drift hits both modes equally
            obs.disable()
            disabled_times.append(_timed(segment))
            obs.enable(ListSink())
            enabled_times.append(_timed(segment))
    finally:
        obs.shutdown()
    disabled, enabled = min(disabled_times), min(enabled_times)
    assert enabled <= disabled * 1.05 + 0.010, (
        f"telemetry overhead too high: enabled {enabled * 1e3:.1f}ms vs "
        f"disabled {disabled * 1e3:.1f}ms")


@pytest.mark.perf_smoke
def test_health_sentinel_overhead_on_condense_segment_is_small():
    """The default ``record``-policy sentinels must cost <= ~5% on a
    condense segment with telemetry off (plus the usual absolute noise
    allowance): each check is one strided sum per hand-off, and the
    optimizer gauges run on a 1-in-4 sampling cadence.
    """
    from repro.obs.health import scoped_policy

    rng = np.random.default_rng(0)
    buf = SyntheticBuffer(3, 2, (3, 8, 8))
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((24, 3, 8, 8)).astype(np.float32)
    real_y = rng.integers(0, 3, 24)
    matcher = OneStepMatcher(iterations=4, alpha=0.1, batch_size=16)
    factory = lambda r: ConvNet(3, 3, 8, width=8, depth=2, rng=r)
    deployed = ConvNet(3, 3, 8, width=8, depth=2, rng=np.random.default_rng(5))

    def segment():
        matcher.condense(buf, [0, 1, 2], real_x, real_y, None,
                         model_factory=factory,
                         rng=np.random.default_rng(1),
                         deployed_model=deployed)

    obs.shutdown()
    obs.disable()
    segment()  # warm up before either timed mode
    off_times, on_times = [], []
    for _ in range(5):  # interleave so drift hits both modes equally
        with scoped_policy("off"):
            off_times.append(_timed(segment))
        with scoped_policy("record"):
            on_times.append(_timed(segment))
    off, on = min(off_times), min(on_times)
    assert on <= off * 1.05 + 0.010, (
        f"health sentinel overhead too high: record {on * 1e3:.1f}ms vs "
        f"off {off * 1e3:.1f}ms")


@pytest.mark.perf_smoke
def test_ledger_tracking_overhead_is_small():
    """Memory-ledger accounting must be invisible on the hot path: with
    telemetry disabled, a condense segment (including tracked buffer
    construction) under ``tracking=True`` must stay within ~5% of the same
    segment with the ledger switched off (plus the usual absolute noise
    allowance for this sub-100ms workload).
    """
    from repro.obs.memory import default_ledger

    rng = np.random.default_rng(0)
    images = rng.standard_normal((3 * 2, 3, 8, 8)).astype(np.float32)
    real_x = rng.standard_normal((24, 3, 8, 8)).astype(np.float32)
    real_y = rng.integers(0, 3, 24)
    matcher = OneStepMatcher(iterations=4, alpha=0.1, batch_size=16)
    factory = lambda r: ConvNet(3, 3, 8, width=8, depth=2, rng=r)
    deployed = ConvNet(3, 3, 8, width=8, depth=2, rng=np.random.default_rng(5))

    def segment():
        buf = SyntheticBuffer(3, 2, (3, 8, 8))  # record + finalizer drop
        buf.images[:] = images
        matcher.condense(buf, [0, 1, 2], real_x, real_y, None,
                         model_factory=factory,
                         rng=np.random.default_rng(1),
                         deployed_model=deployed)

    obs.shutdown()
    segment()  # warm up before either timed mode
    tracked_times, untracked_times = [], []
    try:
        for _ in range(5):  # interleave so drift hits both modes equally
            default_ledger.tracking = False
            untracked_times.append(_timed(segment))
            default_ledger.tracking = True
            tracked_times.append(_timed(segment))
    finally:
        default_ledger.tracking = True
    tracked, untracked = min(tracked_times), min(untracked_times)
    assert tracked <= untracked * 1.05 + 0.010, (
        f"ledger tracking overhead too high: tracked {tracked * 1e3:.1f}ms "
        f"vs untracked {untracked * 1e3:.1f}ms")


@pytest.mark.perf_smoke
def test_serial_mode_never_touches_the_shard_pool(monkeypatch):
    """A condense segment runs on the calling thread alone: there is no
    shard pool, and no thread is started to stand in for one."""
    rng = np.random.default_rng(0)
    buf = SyntheticBuffer(4, 2, (3, 8, 8))
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((64, 3, 8, 8)).astype(np.float32)
    real_y = rng.integers(0, 4, 64)
    matcher = OneStepMatcher(iterations=2, alpha=0.1, batch_size=64)
    factory = lambda r: ConvNet(3, 4, 8, width=8, depth=2, rng=r)
    deployed = ConvNet(3, 4, 8, width=8, depth=2, rng=np.random.default_rng(5))

    started = []
    original = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    matcher.condense(buf, [0, 1, 2, 3], real_x, real_y, None,
                     model_factory=factory, rng=np.random.default_rng(1),
                     deployed_model=deployed)
    assert started == []


@pytest.mark.perf_smoke
def test_training_step_stays_c_contiguous(monkeypatch):
    """Layout tripwire: in one ConvNet training step at the benchmark's
    100x3x16x16 shape, every Conv -> Norm -> ReLU -> Pool block output and
    every gradient flowing into a block is C-contiguous NCHW.  A strided
    activation makes every op downstream of it several times slower, and
    unlike a wall-clock bound this check is immune to host noise."""
    from repro.nn.losses import cross_entropy

    ops = {"conv_block"}
    made = []
    original = Tensor._make

    def recording_make(data, parents, op, backward):
        out = original(data, parents, op, backward)
        if op in ops:
            made.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    rng = np.random.default_rng(0)
    model = ConvNet(3, 10, 16, width=16, depth=2,
                    rng=np.random.default_rng(1))
    x = Tensor(rng.standard_normal((100, 3, 16, 16)).astype(np.float32),
               requires_grad=True)
    cross_entropy(model(x), rng.integers(0, 10, 100)).backward()

    assert [t.op for t in made] == ["conv_block"] * 2
    for t in made:
        assert t.data.flags.c_contiguous, f"{t.op} output {t.data.strides}"
        assert t.grad.flags.c_contiguous, f"{t.op} gradient {t.grad.strides}"
    assert x.grad.flags.c_contiguous, f"input gradient {x.grad.strides}"
