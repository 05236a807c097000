"""Tests for the JSONL trace summarizer (repro.obs.summary)."""

from __future__ import annotations

import pytest

from repro.obs import (JsonlSink, load_events, summarize_events,
                       summarize_trace)
from repro.obs.sinks import TRACE_FILENAME

SEGMENT_EVENT = {
    "type": "segment", "segment": 3, "samples_seen": 40, "retrain": True,
    "active_classes": [0, 2], "pseudo_labels_total": 10,
    "pseudo_labels_kept": 7, "vote_margin": 0.15,
    "pseudo_label_accuracy": 0.8, "retained_label_accuracy": 0.9,
    "matching_loss": 12.5, "discrimination_loss": 0.4, "alpha": 0.1,
    "buffer_drift_l2": 2.25, "condense_passes": 12,
}


def _events():
    return [
        {"type": "run_start", "command": "run", "profile": "micro", "seed": 0},
        SEGMENT_EVENT,
        {"type": "span", "name": "pass.g_real", "dur_s": 0.010, "depth": 2},
        {"type": "span", "name": "pass.g_real", "dur_s": 0.030, "depth": 2},
        {"type": "span", "name": "pass.fd_plus", "dur_s": 0.005, "depth": 2},
        {"type": "counters", "plan_cache.hits": 10, "plan_cache.misses": 2,
         "plan_cache.approx_bytes": 4096},
    ]


class TestSummarizeEvents:
    def test_segment_table_rows(self):
        text = summarize_events(_events())
        assert "Segments" in text
        assert "7/10" in text          # kept/total
        assert "0,2" in text           # active classes
        assert "12.5000" in text       # matching loss
        assert "command=run" in text

    def test_span_aggregation(self):
        text = summarize_events(_events())
        assert "Span timings" in text
        # pass.g_real: 2 calls, 40 ms total, 20 ms mean, 30 ms max
        row = next(line for line in text.splitlines()
                   if line.startswith("pass.g_real"))
        assert "2" in row and "40.0" in row and "20.000" in row

    def test_counters_table(self):
        text = summarize_events(_events())
        assert "Runtime counters" in text
        assert "plan_cache.hits" in text

    def test_empty_trace_degrades_gracefully(self):
        text = summarize_events([])
        assert "no segment events" in text

    def test_span_quantile_columns(self):
        from repro.obs import summarize_events_data

        events = [{"type": "span", "name": "op", "dur_s": d, "depth": 0}
                  for d in [0.001] * 98 + [0.512, 1.024]]
        table = summarize_events_data(events)["tables"]["spans"]
        assert table["headers"][4:7] == ["p50-ms", "p95-ms", "p99-ms"]
        row = table["rows"][0]
        p50, p95, p99 = (float(row[4]), float(row[5]), float(row[6]))
        mx = float(row[7])
        # Log-bucket estimates: p50 in the 1ms bucket, p99 caught by the
        # outlier buckets, everything clamped inside [min, max].
        assert 0.5 <= p50 <= 2.0
        assert p50 <= p95 <= p99 <= mx
        assert p99 >= 100.0


QUALITY_EVENT = {
    "type": "quality", "segment": 3, "classes": [0, 2],
    "precision": [1.0, 0.5], "kept": [4, 6], "ages": [-1, 2],
    "updates": [1, 3], "drift_l2": [0.25, 1.5], "slots_per_class": 2,
    "occupancy": 0.6667, "grad_cosine": 0.91, "health_skipped": 0,
}

HEALTH_EVENT = {
    "type": "health", "op": "matcher.g_syn", "kind": "nonfinite",
    "action": "record", "segment": 3, "iteration": 7, "checked": 64,
    "nan": 2, "inf": 0,
}


class TestQualityAndHealthTables:
    def test_quality_rows_one_per_segment_class(self):
        text = summarize_events(_events() + [QUALITY_EVENT])
        assert "Condensation quality (per class)" in text
        lines = text.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if "Condensation quality" in line)
        body = "\n".join(lines[start:start + 6])
        assert "0.5000" in body   # class-2 precision
        assert "0.9100" in body   # grad cosine

    def test_health_rows_render_incident_context(self):
        text = summarize_events(_events() + [HEALTH_EVENT])
        assert "Health incidents" in text
        row = next(line for line in text.splitlines()
                   if line.startswith("matcher.g_syn"))
        assert "nonfinite" in row and "record" in row
        assert "nan=2" in row

    def test_no_events_no_tables(self):
        text = summarize_events(_events())
        assert "Condensation quality" not in text
        assert "Health incidents" not in text


class TestLoadEvents:
    def test_accepts_file_and_directory(self, tmp_path):
        sink = JsonlSink.for_run_dir(tmp_path)
        sink.write({"type": "segment", "segment": 0})
        sink.close()
        by_dir = load_events(tmp_path)
        by_file = load_events(tmp_path / TRACE_FILENAME)
        assert by_dir == by_file
        assert by_dir[0]["segment"] == 0

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events(tmp_path / "nope")

    def test_summarize_trace_end_to_end(self, tmp_path):
        sink = JsonlSink.for_run_dir(tmp_path)
        for ev in _events():
            sink.write(ev)
        sink.close()
        text = summarize_trace(tmp_path)
        assert "Segments" in text and "Runtime counters" in text


MEMORY_EVENT = {
    "type": "memory", "segment": 0, "buffer_bytes": 12288,
    "model_bytes": 4096, "total_bytes": 16384, "peak_bytes": 20480,
    "budget_bytes": 8 * 2 ** 20, "budget_ok": True,
}


class TestMemoryTable:
    def test_memory_rows_render_human_bytes(self):
        over = dict(MEMORY_EVENT, segment=1, total_bytes=9 * 2 ** 20,
                    budget_ok=False)
        text = summarize_events(_events() + [MEMORY_EVENT, over])
        assert "Memory footprint (per segment)" in text
        row = next(line for line in text.splitlines()
                   if line.startswith("0 ") and "KiB" in line)
        assert "12.0KiB" in row and "4.0KiB" in row and "16.0KiB" in row
        assert "8.0MiB" in row and row.rstrip().endswith("ok")
        assert "OVER" in text

    def test_no_memory_events_no_table(self):
        assert "Memory footprint" not in summarize_events(_events())


class TestSummarizeJson:
    def test_document_shape_matches_rendered_tables(self):
        import json as json_mod

        from repro.obs import summarize_events_data

        data = summarize_events_data(_events() + [MEMORY_EVENT])
        assert data["command"] == "run"
        assert data["events"] == len(_events()) + 1
        for key in ("segments", "spans", "memory", "counters"):
            table = data["tables"][key]
            assert len(table["headers"]) == len(table["rows"][0])
        assert data["tables"]["memory"]["rows"][0][0] == "0"
        # Empty tables are omitted, and the document is JSON-serializable.
        assert "sweep_tasks" not in data["tables"]
        json_mod.dumps(data)

    def test_trace_json_includes_skipped_lines(self, tmp_path):
        from repro.obs import summarize_trace_json

        sink = JsonlSink.for_run_dir(tmp_path)
        for ev in _events():
            sink.write(ev)
        sink.close()
        with open(tmp_path / TRACE_FILENAME, "a", encoding="utf-8") as fh:
            fh.write('{"type": "segment", "trunc')
        data = summarize_trace_json(tmp_path)
        assert data["skipped_lines"] == 1
        assert "segments" in data["tables"]

    def test_cli_obs_summarize_json(self, tmp_path, capsys):
        import json as json_mod

        from repro.cli import main

        sink = JsonlSink.for_run_dir(tmp_path)
        for ev in _events():
            sink.write(ev)
        sink.close()
        assert main(["obs", "summarize", str(tmp_path), "--json"]) == 0
        data = json_mod.loads(capsys.readouterr().out)
        assert data["command"] == "run"
        assert "segments" in data["tables"]
