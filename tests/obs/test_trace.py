"""Unit tests for the Chrome trace exporter (repro.obs.trace)."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import (CHROME_TRACE_FILENAME, PARENT_PID, build_trace,
                             export_trace, trace_stats, validate_trace)

T0 = 1000.0  # wall-clock origin for hand-built records


def span(name, start, end, depth, **fields):
    """A span record as telemetry emits it: at *end*, with ts = end time."""
    return dict({"type": "span", "name": name, "ts": T0 + end,
                 "dur_s": end - start, "depth": depth}, **fields)


def span_events(trace):
    return [ev for ev in trace["traceEvents"] if ev["ph"] in ("B", "E")]


class TestSpanForest:
    def test_nesting_reconstructed_from_depth_and_end_order(self):
        # outer [0, 10] wraps inner_a [1, 4] and inner_b [5, 9]; spans
        # emit at exit, so the record order is a, b, outer.
        trace = build_trace([
            span("inner_a", 1, 4, 1),
            span("inner_b", 5, 9, 1),
            span("outer", 0, 10, 0),
        ])
        names = [(ev["name"], ev["ph"]) for ev in span_events(trace)]
        assert names == [("outer", "B"), ("inner_a", "B"), ("inner_a", "E"),
                         ("inner_b", "B"), ("inner_b", "E"), ("outer", "E")]
        assert validate_trace(trace) == []

    def test_sequential_roots_stay_siblings(self):
        trace = build_trace([span("first", 0, 1, 0), span("second", 2, 3, 0)])
        names = [(ev["name"], ev["ph"]) for ev in span_events(trace)]
        assert names == [("first", "B"), ("first", "E"),
                         ("second", "B"), ("second", "E")]

    def test_clock_skew_clamped_inside_parent(self):
        # Child overhangs its parent by 1s of ts/dur clock skew; the clamp
        # must restore strict nesting so the B/E sequence stays valid.
        trace = build_trace([
            span("child", 0.5, 11, 1),
            span("parent", 0, 10, 0),
        ])
        assert validate_trace(trace) == []
        events = span_events(trace)
        child_end = next(ev["ts"] for ev in events
                         if ev["name"] == "child" and ev["ph"] == "E")
        parent_end = next(ev["ts"] for ev in events
                          if ev["name"] == "parent" and ev["ph"] == "E")
        assert child_end <= parent_end

    def test_span_payload_fields_become_args(self):
        trace = build_trace([span("seg", 0, 1, 0, segment=3)])
        begin = next(ev for ev in span_events(trace) if ev["ph"] == "B")
        assert begin["args"] == {"segment": 3}


class TestLanes:
    def test_worker_records_map_to_worker_lanes(self):
        records = [
            span("parent_side", 0, 10, 0),
            span("task_a", 1, 3, 0, worker_pid=41, seq=1, task_index=0),
            span("task_b", 4, 6, 0, worker_pid=42, seq=1, task_index=1),
            {"type": "shard_start", "ts": T0 + 1, "worker_pid": 41, "seq": 0,
             "task_index": 0, "config_hash": "deadbeef01"},
        ]
        trace = build_trace(records)
        assert validate_trace(trace) == []
        stats = trace_stats(trace)
        assert stats["span_lanes"] == 3
        assert stats["pids"] == 3  # parent + two workers
        thread_names = {(ev["pid"], ev["tid"]): ev["args"]["name"]
                        for ev in trace["traceEvents"]
                        if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert thread_names[(PARENT_PID, 0)] == "main"
        assert thread_names[(41, 0)] == "task 0 [deadbeef]"

    def test_lanes_validated_independently(self):
        # Overlapping intervals on *different* lanes are fine.
        trace = build_trace([
            span("a", 0, 10, 0, worker_pid=1, seq=1, task_index=0),
            span("b", 5, 15, 0, worker_pid=2, seq=1, task_index=1),
        ])
        assert validate_trace(trace) == []


class TestCounters:
    def test_memory_events_become_counter_tracks(self):
        trace = build_trace([
            {"type": "memory", "ts": T0 + 1, "segment": 0,
             "buffer_bytes": 100, "model_bytes": 50, "total_bytes": 150,
             "peak_bytes": 200, "budget_bytes": None, "budget_ok": True},
            {"type": "rss", "ts": T0 + 2, "rss_bytes": 4096,
             "tracked_bytes": 150, "high_water_bytes": 200},
            {"type": "counters", "ts": T0 + 3, "plan_cache.hits": 9,
             "memory.tracked_bytes": 150.0, "plan_cache.approx_bytes": 77},
        ])
        assert validate_trace(trace) == []
        names = {ev["name"] for ev in trace["traceEvents"]
                 if ev["ph"] == "C"}
        assert "memory.total_bytes" in names
        assert "memory.rss_bytes" in names
        assert "memory.tracked_bytes" in names
        assert "plan_cache.approx_bytes" in names
        # budget_bytes was None and plan_cache.hits is not byte-valued:
        # neither becomes a counter track.
        assert "memory.budget_bytes" not in names
        assert "plan_cache.hits" not in names
        assert trace_stats(trace)["memory_counter_tracks"] >= 3

    def test_counter_values_are_floats(self):
        trace = build_trace([{"type": "memory", "ts": T0, "total_bytes": 5,
                              "buffer_bytes": 5, "model_bytes": 0,
                              "peak_bytes": 5}])
        for ev in trace["traceEvents"]:
            if ev["ph"] == "C":
                assert isinstance(ev["args"]["bytes"], float)


class TestInstants:
    def test_learner_events_become_instant_markers(self):
        trace = build_trace([
            {"type": "segment", "ts": T0 + 1, "segment": 0, "retrain": False,
             "matching_loss": 0.5, "active_classes": [0]},
            {"type": "eval", "ts": T0 + 2, "samples_seen": 10,
             "accuracy": 0.5},
            {"type": "quality", "ts": T0 + 3, "segment": 0, "classes": [0],
             "occupancy": 0.5, "grad_cosine": 0.9},
            {"type": "health", "ts": T0 + 4, "op": "matcher.g_real",
             "kind": "nonfinite", "action": "record", "segment": 0},
        ])
        assert validate_trace(trace) == []
        instants = [ev for ev in trace["traceEvents"] if ev["ph"] == "i"]
        names = [ev["name"] for ev in instants]
        assert names == ["segment", "eval", "quality", "health.nonfinite"]
        assert all(ev["s"] == "t" for ev in instants)
        assert trace_stats(trace)["instant_events"] == 4
        # Scalar payload lands in args; list-valued fields stay out.
        seg = instants[0]
        assert seg["args"]["matching_loss"] == 0.5
        assert "active_classes" not in seg["args"]

    def test_retrain_segment_gets_extra_marker(self):
        trace = build_trace([
            {"type": "segment", "ts": T0 + 1, "segment": 3, "retrain": True},
        ])
        names = [ev["name"] for ev in trace["traceEvents"]
                 if ev["ph"] == "i"]
        assert names == ["segment", "retrain"]

    def test_worker_instants_land_on_their_lane(self):
        trace = build_trace([
            {"type": "segment", "ts": T0 + 1, "segment": 0, "retrain": False,
             "worker_pid": 41, "seq": 2, "task_index": 1},
        ])
        marker = next(ev for ev in trace["traceEvents"] if ev["ph"] == "i")
        assert (marker["pid"], marker["tid"]) == (41, 1)

    def test_invalid_instant_scope_flagged(self):
        bad = {"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 0,
                                "ts": 1.0, "s": "z"}]}
        assert any("invalid scope" in p for p in validate_trace(bad))


class TestValidate:
    def test_flags_unbalanced_and_mismatched(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 0.0},
            {"name": "b", "ph": "E", "pid": 0, "tid": 0, "ts": 1.0},
            {"name": "c", "ph": "B", "pid": 0, "tid": 0, "ts": 2.0},
        ]}
        problems = validate_trace(bad)
        assert any("does not match" in p for p in problems)
        assert any("unclosed" in p for p in problems)

    def test_flags_time_going_backwards(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 5.0},
            {"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        assert any("decreases" in p for p in validate_trace(bad))

    def test_flags_non_numeric_counter(self):
        bad = {"traceEvents": [
            {"name": "m", "ph": "C", "pid": 0, "tid": 0, "ts": 0.0,
             "args": {"bytes": "many"}},
        ]}
        assert any("non-numeric" in p for p in validate_trace(bad))

    def test_not_a_list(self):
        assert validate_trace({"traceEvents": "nope"}) == [
            "traceEvents is not a list"]


class TestExport:
    def test_export_roundtrip(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        records = [
            {"type": "run_start", "ts": T0, "command": "unit-test"},
            span("segment", 0, 1, 0, segment=0),
            {"type": "memory", "ts": T0 + 0.5, "buffer_bytes": 10,
             "model_bytes": 5, "total_bytes": 15, "peak_bytes": 20},
        ]
        with open(run_dir / "trace.jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        out = export_trace(run_dir)
        assert out == run_dir / CHROME_TRACE_FILENAME
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert validate_trace(trace) == []
        assert trace["otherData"]["command"] == "unit-test"
        stats = trace_stats(trace)
        assert stats["span_events"] == 2
        assert stats["counter_tracks"] == 4

    def test_explicit_output_path(self, tmp_path):
        src = tmp_path / "trace.jsonl"
        src.write_text(json.dumps(span("s", 0, 1, 0)) + "\n",
                       encoding="utf-8")
        out = export_trace(src, tmp_path / "sub" / "out.json")
        assert out.is_file()
        assert validate_trace(json.loads(out.read_text())) == []
