"""Lane-stacked ±ε evaluation of Eq. (7): byte identity and end-to-end runs.

Two layers of guarantees:

* the two perturbed input-gradient passes, run as one ordinary forward/
  backward on ``[+ε, −ε]`` lane-stacked parameters, are **byte-equal** to
  the sequential two-pass evaluation (:func:`_serial_fd_passes`), on the
  learner-test ConvNet shapes and on a dense net;
* a full seeded DECO run on an f=2 factorized buffer is bit-identical
  stacked vs. sequential, buffer bytes after every segment included.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.condensation import matching
from repro.nn.convnet import ConvNet
from repro.nn.layers import (Conv2d, Flatten, InstanceNorm2d, Linear, ReLU,
                             Sequential)
from repro.utils.batching import micro_batches


def _fd_case(shape, num_classes, width, depth, n, seed=0, model=None):
    rng = np.random.default_rng(seed)
    if model is None:
        model = ConvNet(shape[0], num_classes, shape[-1], width=width,
                        depth=depth, rng=np.random.default_rng(seed + 7))
    x = rng.standard_normal((n, *shape)).astype(np.float32)
    y = rng.integers(0, num_classes, size=n).astype(np.int64)
    direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                 for p in model.parameters()]
    return model, x, y, direction


def _assert_stacked_matches_serial(model, x, y, direction):
    params = model.parameters()
    originals = [p.data for p in params]
    eps = 0.01 / float(np.sqrt(sum(float((d ** 2).sum())
                                   for d in direction)))
    parts = micro_batches(x, lanes=2)
    stacked = matching._stacked_fd_passes(model, params, x, y, direction,
                                          eps, parts)
    serial = matching._serial_fd_passes(model, params, x, y, direction, eps,
                                        None, parts)
    assert stacked[0].tobytes() == serial[0].tobytes()
    assert stacked[1].tobytes() == serial[1].tobytes()
    assert all(p.data is orig for p, orig in zip(params, originals))
    assert all(p.requires_grad for p in params)

    stats: dict = {}
    grad = matching.finite_difference_matching_grad(model, x, y, direction,
                                                    stats_out=stats)
    assert stats == {"passes": 2, "fused": True}
    expected = (serial[0] - serial[1]) / (2.0 * eps)
    assert grad.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Stacked vs. sequential bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape,classes,width,depth,n", [
    ((1, 8, 8), 3, 4, 2, 6),       # the learner-test ConvNet
    ((3, 16, 16), 5, 8, 2, 10),
    ((3, 32, 32), 10, 16, 3, 32),  # CIFAR-ish, depth 3
    ((3, 32, 32), 10, 16, 2, 8),   # the 32 px DECO benchmark condensation
    ((3, 32, 32), 10, 16, 2, 16),
])
def test_fused_fd_grad_byte_equal(shape, classes, width, depth, n):
    _assert_stacked_matches_serial(*_fd_case(shape, classes, width, depth, n))


def test_stacked_fd_grad_byte_equal_on_an_mlp():
    rng = np.random.default_rng(3)
    model = Sequential(Flatten(), Linear(48, 16, rng=rng), ReLU(),
                       Linear(16, 4, rng=rng))
    assert model.runs_lanes()
    _assert_stacked_matches_serial(*_fd_case((3, 4, 4), 4, 0, 0, 9,
                                             model=model))


def test_augmented_or_disabled_paths_stay_sequential():
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)

    from repro.data.transforms import sample_augmentation
    augmentation = sample_augmentation(8, np.random.default_rng(0))
    stats: dict = {}
    matching.finite_difference_matching_grad(
        model, x, y, direction, augmentation=augmentation, stats_out=stats)
    assert stats == {"passes": 2, "fused": False}


def test_zero_direction_short_circuits():
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
    zeros = [np.zeros_like(d) for d in direction]
    stats: dict = {}
    grad = matching.finite_difference_matching_grad(model, x, y, zeros,
                                                    stats_out=stats)
    assert stats == {"passes": 0, "fused": False}
    assert not grad.any()


def test_non_convnet_model_falls_back():
    # Standalone Conv2d/InstanceNorm2d layers take no lanes, so a model
    # built from them runs its ±ε passes one by one.
    rng = np.random.default_rng(2)
    model = Sequential(Conv2d(1, 4, 3, padding=1, rng=rng), InstanceNorm2d(4),
                       ReLU(), Flatten(), Linear(4 * 8 * 8, 3, rng=rng))
    assert not model.runs_lanes()
    model, x, y, direction = _fd_case((1, 8, 8), 3, 0, 0, 6, model=model)
    stats: dict = {}
    grad = matching.finite_difference_matching_grad(
        model, x, y, direction, stats_out=stats)
    assert stats == {"passes": 2, "fused": False}
    assert np.isfinite(grad).all() and grad.any()


# ----------------------------------------------------------------------
# End-to-end: seeded DECO run on an f=2 buffer, stacked vs. sequential
# ----------------------------------------------------------------------
def _norm(v):
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def _deco_stream(monkeypatch):
    """A micro DECO run at decode factor 2: its result fingerprint, the
    SHA-256 of the stored buffer after every condense call, and the count
    of stacked FD evaluations."""
    from repro.condensation.one_step import OneStepMatcher
    from repro.experiments import prepare_experiment, run_method

    digests, fused = [], []
    condense = OneStepMatcher.condense

    def recording(self, buffer, *args, **kwargs):
        stats = condense(self, buffer, *args, **kwargs)
        digests.append(hashlib.sha256(buffer.images.tobytes()).hexdigest())
        fused.append(stats.extra.get("fused", 0))
        return stats

    prepared = prepare_experiment("core50", "micro", seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(OneStepMatcher, "condense", recording)
        result = run_method(prepared, "deco", 1, seed=0, decode_factor=2)
    fingerprint = (result.final_accuracy, result.condense_passes,
                   [sorted((k, _norm(v)) for k, v in d.items())
                    for d in result.history.diagnostics])
    return fingerprint, digests, sum(fused)


def test_deco_learner_run_bit_identical_fused_vs_unfused(monkeypatch):
    stacked, stacked_digests, stacked_evals = _deco_stream(monkeypatch)
    # Without the ConvNet's lane declaration its Conv2d/InstanceNorm2d
    # children decide, and they take no lanes: every FD step runs serially.
    monkeypatch.setattr(ConvNet, "takes_lanes", False)
    serial, serial_digests, serial_evals = _deco_stream(monkeypatch)
    assert stacked_evals > 0 and serial_evals == 0
    assert stacked_digests and stacked_digests == serial_digests
    assert stacked == serial


# ----------------------------------------------------------------------
# Telemetry of the stacked pass (observability contract)
# ----------------------------------------------------------------------
def _fd_sweep_worker(config, context):
    """Sweep task: one stacked FD evaluation, counted via obs."""
    from repro import obs as _obs  # picklable module-level worker

    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6,
                                      seed=config["seed"])
    stats: dict = {}
    matching.finite_difference_matching_grad(model, x, y, direction,
                                             stats_out=stats)
    _obs.counter("task.calls")
    return bool(stats["fused"])


class TestTelemetryQuietVerification:
    def test_reference_run_emits_no_spans_or_counters(self):
        # The stacked evaluation is one pass.fd_fused span: no sequential
        # ±ε spans and no FD counters.
        from repro import obs

        model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
        registry = obs.Telemetry()
        sink = obs.ListSink()
        registry.enable(sink)
        with obs.scoped_telemetry(registry):
            stats: dict = {}
            matching.finite_difference_matching_grad(model, x, y, direction,
                                                     stats_out=stats)
        assert stats == {"passes": 2, "fused": True}

        span_names = [r["name"] for r in sink.records
                      if r.get("type") == "span"]
        assert span_names.count("pass.fd_fused") == 1
        assert "pass.fd_plus" not in span_names
        assert "pass.fd_minus" not in span_names
        counters = registry.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("fd.")]

    def test_fd_counter_parity_jobs1_vs_jobs2(self, tmp_path):
        from repro import obs
        from repro.obs import aggregate_worker_counters
        from repro.obs.export import WORKERS_FILENAME
        from repro.obs.sinks import read_jsonl_tolerant
        from repro.parallel import run_sweep

        configs = [{"seed": 0}, {"seed": 1}]

        registry = obs.Telemetry()
        registry.enable()
        with obs.scoped_telemetry(registry):
            serial_ok = [o.result for o in
                         run_sweep(_fd_sweep_worker, configs, jobs=1)]
        # The worker-side counters: sweep.* is the driver's bookkeeping.
        serial = {name: value
                  for name, value in registry.snapshot()["counters"].items()
                  if not name.startswith("sweep.")}
        assert serial_ok == [True, True]
        assert serial.get("task.calls") == 2.0

        outcomes = run_sweep(_fd_sweep_worker, configs, jobs=2,
                             telemetry_dir=tmp_path)
        assert [o.result for o in outcomes] == serial_ok
        records, skipped = read_jsonl_tolerant(tmp_path / WORKERS_FILENAME)
        assert skipped == 0
        totals = {name: value
                  for name, value in aggregate_worker_counters(records).items()
                  if not name.startswith("sweep.")}
        assert totals == serial
