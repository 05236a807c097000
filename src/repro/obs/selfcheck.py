"""End-to-end cross-process observability self-check (obs leg of repro-check).

Run as ``python -m repro.obs.selfcheck``.  Exercises the worker-telemetry
pipeline the way a real parallel run would:

1. **Serial reference** — a tiny 2-point grid on the micro profile runs
   with ``jobs=1`` under a scoped fresh registry; its counter snapshot is
   the ground truth for what the tasks themselves emit.
2. **Parallel run** — the same grid with ``jobs=2`` and telemetry into a
   temporary run directory: each worker writes a per-task shard, the
   parent merges them into ``workers.jsonl``.
3. **Checks** — one shard per grid point exists; the merged file exists
   and summarizes; the aggregated worker counters equal the serial
   reference on every task-emitted counter; re-merging the same shards is
   byte-identical.
4. **Regression dry-run** — ``repro obs regress --dry-run`` against the
   repo's bench history must exit cleanly (regressions are reported, not
   fatal, in this leg — the bench pass owns the hard verdict).

The serial reference must emit ``health.*`` and ``quality.*`` counters,
so the aggregate comparison is never vacuous.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

DATASET = "core50"
PROFILE = "micro"
CONFIGS = (
    {"method": "fifo", "ipc": 1, "seed": 0},
    {"method": "deco", "ipc": 1, "seed": 0},
)


class SelfCheckFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckFailure(message)


def main() -> int:
    from ..experiments.common import prepare_experiment
    from ..experiments.grid import run_method_grid
    from .export import (SHARD_DIRNAME, WORKERS_FILENAME,
                         aggregate_worker_counters)
    from .sinks import JsonlSink, read_jsonl_tolerant
    from .summary import summarize_trace
    from .telemetry import Telemetry, scoped_telemetry

    t0 = time.perf_counter()
    configs = [dict(c) for c in CONFIGS]
    print(f"[obs-selfcheck] serial reference: {len(configs)}-point grid "
          f"on {DATASET}/{PROFILE}, jobs=1")
    prepared = prepare_experiment(DATASET, PROFILE, seed=0)
    serial = Telemetry()
    serial.enable()
    with scoped_telemetry(serial):
        run_method_grid(prepared, configs, jobs=1)
    reference = serial.snapshot()["counters"]
    _check(any(name.startswith("health.") for name in reference),
           "serial reference emitted no health.* counters — sentinel "
           "parity would be vacuous")
    _check(any(name.startswith("quality.") for name in reference),
           "serial reference emitted no quality.* counters — "
           "condensation-quality parity would be vacuous")

    with tempfile.TemporaryDirectory(prefix="repro-obs-check-") as tmp:
        run_dir = pathlib.Path(tmp) / "trace"
        print("[obs-selfcheck] parallel run: jobs=2 with telemetry "
              f"into {run_dir}")
        parent = Telemetry()
        parent.enable(JsonlSink.for_run_dir(run_dir))
        with scoped_telemetry(parent):
            run_method_grid(prepared, configs, jobs=2)
        parent.shutdown()

        shard_dir = run_dir / SHARD_DIRNAME
        shards = sorted(shard_dir.glob("*.jsonl"))
        _check(len(shards) == len(configs),
               f"expected {len(configs)} worker shards, found "
               f"{len(shards)} in {shard_dir}")
        merged = run_dir / WORKERS_FILENAME
        _check(merged.is_file(), f"no merged {WORKERS_FILENAME}")

        print("[obs-selfcheck] merge determinism + counter totals")
        first_bytes = merged.read_bytes()
        from .export import merge_worker_shards
        merge_worker_shards(run_dir)
        _check(merged.read_bytes() == first_bytes,
               "re-merging the same shards changed workers.jsonl")

        events, skipped = read_jsonl_tolerant(merged)
        _check(skipped == 0, f"{skipped} malformed lines in a clean "
                             f"merge")
        totals = aggregate_worker_counters(events)
        _check(bool(totals), "merged shards carry no worker counters")
        for name, value in sorted(totals.items()):
            _check(reference.get(name) == value,
                   f"counter {name!r}: workers total {value!r} != "
                   f"serial {reference.get(name)!r}")
        for name in reference:
            _check(name in totals,
                   f"serial counter {name!r} missing from the worker "
                   f"aggregate")

        summary = summarize_trace(run_dir)
        _check("Worker telemetry (merged shards)" in summary,
               "summarize did not render the per-worker breakdown")

    print("[obs-selfcheck] bench-history regression dry-run")
    from ..cli import main as cli_main
    _check(cli_main(["obs", "regress", "--dry-run"]) == 0,
           "obs regress --dry-run did not exit cleanly")

    print(f"[obs-selfcheck] OK: jobs=2 telemetry aggregates match the "
          f"serial run ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfCheckFailure as exc:
        print(f"[obs-selfcheck] FAILED: {exc}")
        sys.exit(1)
