"""Worker telemetry shards: export, deterministic merge, counter parity.

The last section runs a real learner grid at ``jobs=1`` and ``jobs=2`` and
checks what reaches disk from both: counters, memory events, the exported
Chrome trace and the run report."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import prepare_experiment
from repro.experiments.grid import run_method_grid
from repro.obs import (JsonlSink, Telemetry, aggregate_worker_counters,
                       build_report_data, config_digest, export_trace,
                       load_events, merge_worker_shards, render_report_html,
                       scoped_telemetry, shard_path, summarize_trace,
                       trace_stats, validate_trace, worker_telemetry)
from repro.obs.export import SHARD_DIRNAME, WORKERS_FILENAME
from repro.obs.sinks import read_jsonl_tolerant
from repro.parallel import run_sweep


def _counting_worker(config, context):
    """Emit per-task counters/events through the ambient registry."""
    n = int(config["i"]) + 1
    obs.counter("task.calls")
    obs.counter("task.units", n)
    obs.event("task_done", i=config["i"])
    return n * n


# ----------------------------------------------------------------------
# worker_telemetry
# ----------------------------------------------------------------------
class TestWorkerTelemetry:
    def test_shard_carries_tags_seq_and_final_snapshot(self, tmp_path):
        path = shard_path(tmp_path, 3, config_digest({"i": 3}))
        with worker_telemetry(path, task_index=3, config={"i": 3}):
            obs.counter("task.calls")
            obs.event("task_done", i=3)
        records, skipped = read_jsonl_tolerant(path)
        assert skipped == 0
        types = [r["type"] for r in records]
        assert types[0] == "shard_start"
        assert types[-1] == "worker_counters"
        assert "task_done" in types
        assert records[0]["config"] == {"i": 3}
        assert [r["seq"] for r in records] == list(range(len(records)))
        for record in records:
            assert record["config_hash"] == config_digest({"i": 3})
            assert record["task_index"] == 3
        assert records[-1]["counters"] == {"task.calls": 1.0}

    def test_snapshot_written_even_when_task_raises(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        with pytest.raises(RuntimeError):
            with worker_telemetry(path, task_index=0, config={}):
                obs.counter("task.calls")
                raise RuntimeError("task crashed")
        records, _ = read_jsonl_tolerant(path)
        assert records[-1]["type"] == "worker_counters"
        assert records[-1]["counters"] == {"task.calls": 1.0}

    def test_parent_registry_restored(self, tmp_path):
        parent = obs.get_telemetry()
        with worker_telemetry(tmp_path / "s.jsonl", task_index=0, config={}):
            assert obs.get_telemetry() is not parent
        assert obs.get_telemetry() is parent


# ----------------------------------------------------------------------
# merge_worker_shards
# ----------------------------------------------------------------------
class TestMerge:
    def _write_shard(self, run_dir, index, config):
        path = shard_path(run_dir, index, config_digest(config))
        with worker_telemetry(path, task_index=index, config=config):
            obs.counter("task.calls")
        return path

    def test_merge_orders_by_config_hash_then_index(self, tmp_path):
        for index in (2, 0, 1):
            self._write_shard(tmp_path, index, {"i": index})
        merged = merge_worker_shards(tmp_path)
        assert merged == tmp_path / WORKERS_FILENAME
        records, _ = read_jsonl_tolerant(merged)
        starts = [r for r in records if r["type"] == "shard_start"]
        keys = [(r["config_hash"], r["task_index"]) for r in starts]
        assert keys == sorted(keys)

    def test_repeated_merges_are_byte_identical(self, tmp_path):
        for index in range(3):
            self._write_shard(tmp_path, index, {"i": index})
        first = merge_worker_shards(tmp_path).read_bytes()
        second = merge_worker_shards(tmp_path).read_bytes()
        assert first == second

    def test_truncated_tail_is_skipped_not_fatal(self, tmp_path):
        path = self._write_shard(tmp_path, 0, {"i": 0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "task_done", "seq": 99')  # killed mid-write
        merged = merge_worker_shards(tmp_path)
        text = merged.read_text()
        assert '"seq": 99' not in text
        for line in text.splitlines():
            json.loads(line)  # every merged line is valid

    def test_no_shards_returns_none(self, tmp_path):
        assert merge_worker_shards(tmp_path) is None
        (tmp_path / SHARD_DIRNAME).mkdir()
        assert merge_worker_shards(tmp_path) is None


# ----------------------------------------------------------------------
# End-to-end: jobs=2 counter totals == jobs=1
# ----------------------------------------------------------------------
class TestCounterParity:
    CONFIGS = [{"i": i} for i in range(4)]

    def _serial_counters(self):
        registry = Telemetry()
        registry.enable()
        with scoped_telemetry(registry):
            run_sweep(_counting_worker, self.CONFIGS, jobs=1)
        return registry.snapshot()["counters"]

    def test_merged_counters_equal_serial_run(self, tmp_path):
        serial = {name: value for name, value in self._serial_counters().items()
                  if name.startswith("task.")}
        assert serial == {"task.calls": 4.0, "task.units": 10.0}

        outcomes = run_sweep(_counting_worker, self.CONFIGS, jobs=2,
                             telemetry_dir=tmp_path)
        assert [o.result for o in outcomes] == [(i + 1) ** 2
                                                for i in range(4)]
        shards = sorted((tmp_path / SHARD_DIRNAME).glob("*.jsonl"))
        assert len(shards) == len(self.CONFIGS)
        records, skipped = read_jsonl_tolerant(tmp_path / WORKERS_FILENAME)
        assert skipped == 0
        totals = {name: value
                  for name, value in aggregate_worker_counters(records).items()
                  if name.startswith("task.")}
        assert totals == serial

    def test_task_events_survive_into_merged_stream(self, tmp_path):
        run_sweep(_counting_worker, self.CONFIGS, jobs=2,
                  telemetry_dir=tmp_path)
        records, _ = read_jsonl_tolerant(tmp_path / WORKERS_FILENAME)
        done = [r for r in records if r["type"] == "task_done"]
        assert sorted(r["i"] for r in done) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# End-to-end: a real learner grid (fifo + deco, core50/micro), traced
# ----------------------------------------------------------------------
GRID = [{"method": "fifo", "ipc": 1, "seed": 0},
        {"method": "deco", "ipc": 1, "seed": 0}]


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """jobs -> (results, parent counters, run dir) for jobs 1 and 2."""
    prepared = prepare_experiment("core50", "micro", seed=0)
    runs = {}
    for jobs in (1, 2):
        run_dir = tmp_path_factory.mktemp(f"grid-jobs{jobs}")
        registry = Telemetry()
        registry.enable(JsonlSink.for_run_dir(run_dir))
        with scoped_telemetry(registry):
            results = run_method_grid(prepared, GRID, jobs=jobs)
        runs[jobs] = (results, registry.snapshot()["counters"], run_dir)
        registry.shutdown()
    return runs


def _memory_events(run_dir):
    return [ev for ev in load_events(run_dir) if ev.get("type") == "memory"]


class TestRealGrid:
    def test_worker_counters_equal_serial_run(self, grid_runs):
        # The worker-side counters: sweep.* is the parent's bookkeeping,
        # which the serial grid records in the same registry.
        serial = {name: value for name, value in grid_runs[1][1].items()
                  if not name.startswith("sweep.")}
        assert any(name.startswith("health.") for name in serial)
        assert any(name.startswith("quality.") for name in serial)
        run_dir = grid_runs[2][2]
        assert len(list((run_dir / SHARD_DIRNAME).glob("*.jsonl"))) == 2
        records, skipped = read_jsonl_tolerant(run_dir / WORKERS_FILENAME)
        assert skipped == 0
        assert aggregate_worker_counters(records) == serial
        assert "Worker telemetry (merged shards)" in summarize_trace(run_dir)

    def test_memory_events_and_footprints_match_serial(self, grid_runs):
        serial = _memory_events(grid_runs[1][2])
        assert serial
        for ev in serial:
            assert {"buffer_bytes", "model_bytes", "total_bytes",
                    "peak_bytes", "budget_ok"} <= ev.keys()
            assert ev["peak_bytes"] >= ev["total_bytes"]

        def triples(events):
            return sorted((ev["buffer_bytes"], ev["model_bytes"],
                           ev["total_bytes"]) for ev in events)

        assert triples(_memory_events(grid_runs[2][2])) == triples(serial)
        # peak_bytes is the process high-water mark, so it is left out.
        keys = ("buffer_bytes", "model_bytes", "total_bytes", "budget_ok")
        feet = {jobs: [[r.extra["memory"][k] for k in keys]
                       for r in grid_runs[jobs][0]] for jobs in (1, 2)}
        assert all(total for _, _, total, _ in feet[1])
        assert feet[2] == feet[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exported_trace_validates(self, grid_runs, jobs):
        out = export_trace(grid_runs[jobs][2])
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert validate_trace(trace) == []
        stats = trace_stats(trace)
        assert stats["span_events"] > 0 and stats["instant_events"] > 0
        assert stats["memory_counter_tracks"] >= 3
        assert stats["span_lanes"] >= jobs

    def test_report_of_a_clean_run(self, grid_runs):
        data = build_report_data(grid_runs[1][2])
        assert data["health"]["count"] == 0
        assert "quality" in data["tables"] and data["timelines"]
        html = render_report_html(data)
        for needle in ("<script", "href=", "src="):
            assert needle not in html
        assert "Condensation quality" in html
        assert "No health incidents recorded" in html
