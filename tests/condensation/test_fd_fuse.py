"""Fused finite-difference engine: bit-identity and end-to-end runs.

Two layers of guarantees:

* the fused (lane-grouped) ±ε evaluation of Eq. (7) is **byte-equal** to
  the sequential two-pass evaluation on the learner-test shapes;
* a full seeded DECO learner run is bit-identical fused vs. unfused
  (``condense_passes`` excluded: fusing legitimately halves the FD pass
  count, which is the point).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.condensation import matching
from repro.nn import kernels
from repro.nn.convnet import ConvNet


@pytest.fixture(autouse=True)
def _restore_fd_fuse():
    enabled = kernels.fd_fuse_enabled()
    matching.clear_fd_fuse_verdicts()
    matching.reset_fd_fuse_stats()
    yield
    kernels.set_fd_fuse(enabled)
    matching.clear_fd_fuse_verdicts()
    matching.reset_fd_fuse_stats()


def _fd_case(shape, num_classes, width, depth, n, seed=0):
    rng = np.random.default_rng(seed)
    model = ConvNet(shape[0], num_classes, shape[-1], width=width,
                    depth=depth, rng=np.random.default_rng(seed + 7))
    x = rng.standard_normal((n, *shape)).astype(np.float32)
    y = rng.integers(0, num_classes, size=n).astype(np.int64)
    direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                 for p in model.parameters()]
    return model, x, y, direction


# ----------------------------------------------------------------------
# Fused vs. sequential bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape,classes,width,depth,n", [
    ((1, 8, 8), 3, 4, 2, 6),       # the learner-test ConvNet
    ((3, 16, 16), 5, 8, 2, 10),
    ((3, 32, 32), 10, 16, 3, 32),  # CIFAR-ish, depth 3
    ((3, 32, 32), 10, 16, 2, 8),   # the 32 px DECO benchmark condensation
    ((3, 32, 32), 10, 16, 2, 16),
])
def test_fused_fd_grad_byte_equal(shape, classes, width, depth, n):
    model, x, y, direction = _fd_case(shape, classes, width, depth, n)

    kernels.set_fd_fuse(False)
    reference = matching.finite_difference_matching_grad(model, x, y, direction)

    kernels.set_fd_fuse(True)
    matching.clear_fd_fuse_verdicts()
    # First call verifies fused-vs-serial byte equality in situ ...
    stats: dict = {}
    verified = matching.finite_difference_matching_grad(
        model, x, y, direction, stats_out=stats)
    assert stats == {"passes": 1, "fused": True}
    np.testing.assert_array_equal(reference, verified)
    # ... later calls dispatch straight to the fused path.
    stats = {}
    fused = matching.finite_difference_matching_grad(
        model, x, y, direction, stats_out=stats)
    assert stats == {"passes": 1, "fused": True}
    np.testing.assert_array_equal(reference, fused)

    counts = matching.fd_fuse_stats()
    assert counts["verifications"] == 1
    assert counts["verification_failures"] == 0
    assert counts["fused_dispatches"] == 2
    assert counts["serial_fallbacks"] == 0


def test_augmented_or_disabled_paths_stay_sequential():
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
    kernels.set_fd_fuse(True)

    from repro.data.transforms import sample_augmentation
    augmentation = sample_augmentation(8, np.random.default_rng(0))
    stats: dict = {}
    matching.finite_difference_matching_grad(
        model, x, y, direction, augmentation=augmentation, stats_out=stats)
    assert stats == {"passes": 2, "fused": False}

    kernels.set_fd_fuse(False)
    stats = {}
    matching.finite_difference_matching_grad(model, x, y, direction,
                                             stats_out=stats)
    assert stats == {"passes": 2, "fused": False}


def test_zero_direction_short_circuits():
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
    kernels.set_fd_fuse(True)
    zeros = [np.zeros_like(d) for d in direction]
    stats: dict = {}
    grad = matching.finite_difference_matching_grad(model, x, y, zeros,
                                                    stats_out=stats)
    assert stats == {"passes": 0, "fused": False}
    assert not grad.any()


def test_non_convnet_model_falls_back(monkeypatch):
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
    kernels.set_fd_fuse(True)
    kernels.set_fast_kernels(True)
    monkeypatch.setattr(matching, "_fuse_layout", lambda m: None)
    matching.reset_fd_fuse_stats()
    stats: dict = {}
    matching.finite_difference_matching_grad(model, x, y, direction,
                                             stats_out=stats)
    assert stats == {"passes": 2, "fused": False}
    assert matching.fd_fuse_stats()["serial_fallbacks"] == 1


# ----------------------------------------------------------------------
# End-to-end: seeded DECO learner run, fused vs. unfused
# ----------------------------------------------------------------------
def _norm(v):
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def _fingerprint(result):
    # ``condense_passes`` legitimately differs: fusing halves the FD pass
    # count.  Everything else must be bit-identical.
    return (result.final_accuracy,
            [sorted((k, _norm(v)) for k, v in d.items()
                    if k != "condense_passes")
             for d in result.history.diagnostics])


def test_deco_learner_run_bit_identical_fused_vs_unfused():
    from repro.experiments import prepare_experiment, run_method

    prepared = prepare_experiment("core50", "micro", seed=0)
    kernels.set_fd_fuse(False)
    unfused = run_method(prepared, "deco", 1, seed=0)
    kernels.set_fd_fuse(True)
    matching.clear_fd_fuse_verdicts()
    fused = run_method(prepared, "deco", 1, seed=0)
    assert _fingerprint(unfused) == _fingerprint(fused)
    # Fusing must actually have engaged — fewer passes, same results.
    assert fused.condense_passes < unfused.condense_passes


# ----------------------------------------------------------------------
# Telemetry-quiet verification (observability contract)
# ----------------------------------------------------------------------
def _fd_sweep_worker(config, context, arrays):
    """Sweep task: trigger one fresh fused-FD verification, count via obs."""
    from repro import obs as _obs  # picklable module-level worker

    kernels.set_fast_kernels(True)
    kernels.set_fd_fuse(True)
    matching.clear_fd_fuse_verdicts()
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6,
                                      seed=config["seed"])
    stats: dict = {}
    matching.finite_difference_matching_grad(model, x, y, direction,
                                             stats_out=stats)
    _obs.counter("task.calls")
    return bool(stats["fused"])


class TestTelemetryQuietVerification:
    def test_reference_run_emits_no_spans_or_counters(self):
        # The sequential reference inside the first-use verification is
        # probe work: it must not appear in the telemetry stream, so
        # serial and worker runs keep counter parity.
        from repro import obs

        model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
        kernels.set_fd_fuse(True)
        registry = obs.Telemetry()
        sink = obs.ListSink()
        registry.enable(sink)
        with obs.scoped_telemetry(registry):
            stats: dict = {}
            matching.finite_difference_matching_grad(model, x, y, direction,
                                                     stats_out=stats)
        assert stats == {"passes": 1, "fused": True}
        assert matching.fd_fuse_stats()["verifications"] == 1

        span_names = {r["name"] for r in sink.records
                      if r.get("type") == "span"}
        assert "pass.fd_fused" in span_names
        # The reference's ±ε passes ran (the verdict required them) but
        # stayed silent.
        assert "pass.fd_plus" not in span_names
        assert "pass.fd_minus" not in span_names
        counters = registry.snapshot()["counters"]
        assert counters.get("fd.fused_dispatches") == 1
        assert "fd.serial_fallbacks" not in counters

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
        serial = {name: value
                  for name, value in registry.snapshot()["counters"].items()
                  if name.startswith("fd.")}
        assert serial_ok == [True, True]
        assert serial.get("fd.fused_dispatches") == 2.0
        assert "fd.serial_fallbacks" not in serial

        outcomes = run_sweep(_fd_sweep_worker, configs, jobs=2,
                             telemetry_dir=tmp_path)
        assert [o.result for o in outcomes] == serial_ok
        records, skipped = read_jsonl_tolerant(tmp_path / WORKERS_FILENAME)
        assert skipped == 0
        totals = {name: value
                  for name, value in aggregate_worker_counters(records).items()
                  if name.startswith("fd.")}
        assert totals == serial
