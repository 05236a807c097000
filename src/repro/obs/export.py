"""Cross-process telemetry: per-task worker shards and their merge.

The process-wide registry in :mod:`repro.obs.telemetry` is exactly that —
process-wide.  The moment a grid runs with ``jobs > 1``, every counter,
span, and per-segment event produced inside a sweep worker would be lost
(workers inherit a *disabled* registry so they never interleave writes
into the parent's trace file).  This module closes that gap:

* :func:`worker_telemetry` — a context manager the sweep executor wraps
  around each task in a worker process.  It installs a fresh
  :class:`~repro.obs.telemetry.Telemetry` registry whose sink appends to a
  per-task JSONL *shard*, tags every record with the worker pid, the
  task's config hash, and a monotonically increasing ``seq``, and — on any
  exit path — writes a final ``worker_counters`` record carrying the
  registry snapshot, then flushes and closes the shard.  Short-lived
  workers therefore never drop buffered tail events.
* :func:`merge_worker_shards` — run by the parent after the sweep: reads
  every shard under ``<run_dir>/shards/`` (tolerating the truncated tail a
  killed worker leaves), orders them deterministically by (config hash,
  task index) with records in ``seq`` order inside each shard, and writes
  the concatenation to ``<run_dir>/workers.jsonl``.  Valid input lines are
  copied byte-for-byte, so repeated merges of the same shards produce a
  byte-identical file.
* :func:`aggregate_worker_counters` — folds the per-shard snapshots back
  into one counters dict; a ``jobs=N`` run's aggregate equals the serial
  run's registry for every counter the tasks themselves produce.

``repro obs summarize`` picks ``workers.jsonl`` up automatically and adds
per-worker and per-config breakdowns to the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
from typing import Any, Iterable, Mapping

from .sinks import JsonlSink, read_jsonl_tolerant
from .telemetry import Telemetry, scoped_telemetry

__all__ = [
    "SHARD_DIRNAME",
    "WORKERS_FILENAME",
    "config_digest",
    "shard_path",
    "worker_telemetry",
    "merge_worker_shards",
    "aggregate_worker_counters",
]

SHARD_DIRNAME = "shards"
WORKERS_FILENAME = "workers.jsonl"


def config_digest(config: Any) -> str:
    """Stable short digest of a (JSON-serializable) task config."""
    text = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def shard_path(run_dir: str | os.PathLike, index: int,
               digest: str) -> pathlib.Path:
    """Where task ``index`` with config digest ``digest`` writes its shard."""
    return (pathlib.Path(run_dir) / SHARD_DIRNAME
            / f"task-{index:05d}-{digest}.jsonl")


class _ShardSink(JsonlSink):
    """A JSONL sink that stamps every record with the shard's identity.

    ``seq`` restores intra-task event order at merge time; ``config_hash``
    / ``task_index`` / ``worker_pid`` let the summarizer break the merged
    stream down per config and per worker without re-reading headers.
    """

    def __init__(self, path: str | os.PathLike,
                 tags: Mapping[str, Any]) -> None:
        super().__init__(path, flush_every=64)
        self._tags = dict(tags)
        self._seq = 0

    def write(self, record: dict[str, Any]) -> None:
        stamped = dict(record)
        stamped["seq"] = self._seq
        self._seq += 1
        for key, value in self._tags.items():
            stamped.setdefault(key, value)
        super().write(stamped)


@contextlib.contextmanager
def worker_telemetry(path: str | os.PathLike, *,
                     task_index: int, config: Any):
    """Run the enclosed task under a fresh registry writing shard ``path``.

    The shard opens with a ``shard_start`` record (worker pid and config)
    and closes with a ``worker_counters`` record holding the registry
    snapshot; the sink is flushed and closed in a ``finally`` so a clean
    worker exit never leaves buffered events behind.  The parent's
    (disabled) registry is restored on exit via
    :func:`~repro.obs.telemetry.scoped_telemetry`.
    """
    digest = config_digest(config)
    tags = {"config_hash": digest, "task_index": int(task_index),
            "worker_pid": os.getpid()}
    registry = Telemetry()
    sink = _ShardSink(path, tags)
    registry.enable(sink)
    with scoped_telemetry(registry):
        registry.event("shard_start", config=config)
        try:
            yield registry
        finally:
            snap = registry.snapshot()
            registry.event("worker_counters", counters=snap["counters"],
                           gauges=snap["gauges"],
                           histograms=snap["histograms"])
            registry.shutdown()


def _shard_sort_key(path: pathlib.Path) -> tuple[str, int]:
    """(config hash, task index) of a shard, from its header record.

    Falls back to parsing the filename when the header line itself was
    truncated by a crash; the merge stays deterministic either way.
    """
    records, _ = read_jsonl_tolerant(path)
    for record in records:
        if record.get("type") == "shard_start":
            return (str(record.get("config_hash", "")),
                    int(record.get("task_index", 0)))
    stem = path.stem  # task-00007-<digest>
    parts = stem.split("-")
    try:
        return (parts[2] if len(parts) > 2 else "", int(parts[1]))
    except (ValueError, IndexError):
        return ("", 0)


def _valid_lines(path: pathlib.Path) -> Iterable[str]:
    """The parseable lines of a shard, verbatim, in file (= seq) order."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                json.loads(stripped)
            except json.JSONDecodeError:
                continue  # truncated tail of a killed worker
            yield stripped


def merge_worker_shards(run_dir: str | os.PathLike) -> pathlib.Path | None:
    """Merge ``<run_dir>/shards/*.jsonl`` into ``<run_dir>/workers.jsonl``.

    Deterministic: shards are ordered by (config hash, task index) and
    each shard's valid lines are copied verbatim in their ``seq`` order,
    so merging the same shards twice yields byte-identical output.  The
    file is written atomically (tmp + rename); shards are left in place
    for inspection.  Returns the merged path, or ``None`` when there are
    no shards.
    """
    run_dir = pathlib.Path(run_dir)
    shard_dir = run_dir / SHARD_DIRNAME
    if not shard_dir.is_dir():
        return None
    shards = sorted(shard_dir.glob("*.jsonl"))
    if not shards:
        return None
    shards.sort(key=lambda p: (_shard_sort_key(p), p.name))
    merged = run_dir / WORKERS_FILENAME
    tmp = merged.with_suffix(".jsonl.tmp")
    with open(tmp, "w", encoding="utf-8") as out:
        for shard in shards:
            for line in _valid_lines(shard):
                out.write(line + "\n")
    os.replace(tmp, merged)
    return merged


def aggregate_worker_counters(
        events: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Sum the per-shard ``worker_counters`` snapshots into one dict.

    For counters produced inside the tasks themselves this total equals
    the single-process run's registry counters, whatever ``jobs`` was.
    """
    totals: dict[str, float] = {}
    for event in events:
        if event.get("type") != "worker_counters":
            continue
        for name, value in (event.get("counters") or {}).items():
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals
