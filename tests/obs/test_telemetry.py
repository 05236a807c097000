"""Unit tests for the telemetry core (repro.obs.telemetry / sinks)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.obs import JsonlSink, ListSink, Telemetry
from repro.obs.telemetry import _NOOP_SPAN


@pytest.fixture(autouse=True)
def _clean_default_registry():
    obs.shutdown()
    obs.reset()
    yield
    obs.shutdown()
    obs.reset()


class TestDisabledIsNoop:
    def test_span_returns_shared_singleton(self):
        # No allocation while disabled: every span() call hands back the
        # same module-level no-op object.
        assert obs.span("a") is _NOOP_SPAN
        assert obs.span("b", field=1) is obs.span("c")

    def test_no_registry_growth_while_disabled(self):
        registry = obs.get_telemetry()
        before = (len(registry.counters), len(registry.gauges),
                  len(registry.histograms))
        obs.counter("x")
        obs.gauge("y", 3.0)
        obs.observe("z", 0.5)
        with obs.span("hot"):
            pass
        obs.event("seg", segment=0)
        after = (len(registry.counters), len(registry.gauges),
                 len(registry.histograms))
        assert after == before == (0, 0, 0)

    def test_instrumented_op_emits_nothing_while_disabled(self, rng):
        sink = ListSink()
        registry = obs.get_telemetry()
        registry.sink = sink  # installed but not enabled
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        F.conv2d(x, w, stride=1, padding=1)
        assert sink.records == []


class TestEnabledRegistry:
    def test_counter_gauge_histogram(self):
        t = Telemetry()
        t.enable()
        t.counter("calls")
        t.counter("calls", 2)
        t.gauge("occupancy", 0.75)
        for v in (1.0, 3.0, 2.0):
            t.observe("dur", v)
        snap = t.snapshot()
        assert snap["counters"]["calls"] == 3
        assert snap["gauges"]["occupancy"] == 0.75
        hist = snap["histograms"]["dur"]
        assert hist["count"] == 3
        assert hist["min"] == 1.0 and hist["max"] == 3.0
        assert hist["mean"] == pytest.approx(2.0)

    def test_histogram_quantiles_are_log_bucketed(self):
        t = Telemetry()
        t.enable()
        for v in [0.001] * 9 + [1.0]:
            t.observe("dur", v)
        hist = t.snapshot()["histograms"]["dur"]
        # p50 lands in the 2^-10 bucket (geometric midpoint, clamped to
        # the observed range); p99's rank (10 of 10) must catch the single
        # 1.0 outlier but never exceed the exact max.
        assert 0.0005 <= hist["p50"] <= 0.002
        assert hist["p99"] > 0.1
        assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]

    def test_single_sample_quantiles_are_exact(self):
        t = Telemetry()
        t.enable()
        t.observe("dur", 0.037)
        hist = t.snapshot()["histograms"]["dur"]
        # One sample: clamping to [min, max] makes every quantile exact.
        assert hist["p50"] == hist["p95"] == hist["p99"] == 0.037

    def test_nonpositive_values_bucketed_safely(self):
        t = Telemetry()
        t.enable()
        for v in (0.0, -1.0, 2.0):
            t.observe("dur", v)
        hist = t.snapshot()["histograms"]["dur"]
        assert hist["count"] == 3
        assert hist["min"] == -1.0 and hist["max"] == 2.0
        assert hist["p50"] >= hist["min"]

    def test_spans_nest_and_emit_depth(self):
        t = Telemetry()
        sink = ListSink()
        t.enable(sink)
        with t.span("outer"):
            with t.span("inner", segment=4):
                pass
        names = [(r["name"], r["depth"]) for r in sink.records]
        assert names == [("inner", 1), ("outer", 0)]
        assert sink.records[0]["segment"] == 4
        assert sink.records[0]["dur_s"] >= 0.0
        assert "span.outer" in t.snapshot()["histograms"]

    def test_reset_clears_everything(self):
        t = Telemetry()
        t.enable()
        t.counter("a")
        t.observe("b", 1.0)
        t.reset()
        assert t.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        sink = JsonlSink.for_run_dir(tmp_path)
        obs.enable(sink)
        obs.event("segment", segment=0, matching_loss=1.25,
                  active_classes=(0, 1))
        with obs.span("pass.g_real"):
            pass
        obs.shutdown()

        events = obs.load_events(tmp_path)
        assert [e["type"] for e in events] == ["segment", "span"]
        assert events[0]["matching_loss"] == 1.25
        assert events[0]["active_classes"] == [0, 1]

    def test_jsonl_handles_numpy_values(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl", flush_every=1)
        sink.write({"type": "seg", "loss": np.float32(1.5),
                    "classes": np.arange(3)})
        sink.close()
        rec = json.loads((tmp_path / "trace.jsonl").read_text())
        assert rec["loss"] == 1.5
        assert rec["classes"] == [0, 1, 2]

    def test_enable_with_directory_path(self, tmp_path):
        obs.enable(tmp_path / "run")
        obs.event("segment", segment=1)
        obs.shutdown()
        assert (tmp_path / "run" / "trace.jsonl").exists()


class TestRuntimeCounters:
    def test_collect_pulls_kernel_and_arena_stats(self, rng):
        # The counters are the health-sentinel totals and the ledger's
        # accounts; a conv call leaves no kernel state to report.
        from repro.buffer.buffer import RawBuffer

        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        F.conv2d(x, w, stride=1, padding=1)
        buf = RawBuffer(4, (3, 8, 8))

        sink = ListSink()
        obs.enable(sink)
        values = obs.collect_runtime_counters()
        assert "health.checks" in values
        assert "health.incidents" in values
        assert values["memory.buffer.raw_bytes"] >= buf.memory_bytes
        assert values["memory.tracked_bytes"] >= buf.memory_bytes
        assert all(k.split(".")[0] in ("health", "memory") for k in values)
        assert sink.records[-1]["type"] == "counters"
        assert (obs.snapshot()["gauges"]["memory.high_water_bytes"]
                >= buf.memory_bytes)

    def test_collect_works_while_disabled(self):
        values = obs.collect_runtime_counters()
        assert "health.checks" in values
        assert "memory.rss_bytes" in values
        assert obs.get_telemetry().gauges == {}


class TestJsonlSinkAtexit:
    def test_buffered_records_flushed_on_interpreter_exit(self, tmp_path):
        # Regression: a run that exits without calling shutdown() used to
        # lose every record still buffered in the JSONL sink (flush_every
        # defaults to 64).  The sink now registers an atexit flush.
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.obs.sinks import JsonlSink\n"
            "from repro.obs.telemetry import Telemetry\n"
            "t = Telemetry()\n"
            "t.enable(JsonlSink.for_run_dir(sys.argv[1]))\n"
            "for i in range(5):\n"
            "    t.event('ping', index=i)\n"
            "# exit WITHOUT shutdown/close: atexit must flush the buffer\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        from repro.obs import load_events
        pings = [ev for ev in load_events(tmp_path)
                 if ev.get("type") == "ping"]
        assert [ev["index"] for ev in pings] == [0, 1, 2, 3, 4]

    def test_close_unregisters_atexit_hook(self, tmp_path):
        # Closing twice (explicitly, then via atexit) must not raise or
        # duplicate records.
        sink = JsonlSink.for_run_dir(tmp_path)
        sink.write({"type": "ping", "index": 0})
        sink.close()
        sink.close()  # idempotent
        from repro.obs import load_events
        assert len(load_events(tmp_path)) == 1
