"""Event sinks for the telemetry layer.

A sink receives one dict per event (span end, segment summary, counter
snapshot, ...).  The default on-disk layout is a *run directory* holding a
single ``trace.jsonl`` — one JSON object per line — which
:mod:`repro.obs.summary` turns back into report tables.
"""

from __future__ import annotations

import atexit
import json
import pathlib
from typing import Any

__all__ = ["EventSink", "JsonlSink", "ListSink", "TRACE_FILENAME",
           "read_jsonl_tolerant"]

TRACE_FILENAME = "trace.jsonl"


def read_jsonl_tolerant(
        path: str | pathlib.Path) -> tuple[list[dict[str, Any]], int]:
    """Read a JSONL file, dropping unparseable lines instead of raising.

    A worker killed mid-append (or two writers interleaving, which the
    shard layout avoids but a crashed run may still exhibit) leaves
    truncated or garbled lines; everything before them was flushed whole.
    Returns ``(records, skipped)`` where ``skipped`` counts the dropped
    fragments — the same tolerance :mod:`repro.persist.journal` applies to
    the resume journal.
    """
    records: list[dict[str, Any]] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


class EventSink:
    """Interface: receives event records; ``close`` flushes and releases."""

    def write(self, record: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


class ListSink(EventSink):
    """Keeps events in memory; the test/bench-friendly sink."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        self.records.append(record)


class JsonlSink(EventSink):
    """Appends one JSON line per event, buffered with periodic flushes.

    ``flush_every`` bounds how many records can be lost on a crash without
    paying an fsync per event on the hot path.  An ``atexit`` hook closes
    the sink on interpreter shutdown, so a script that exits without
    calling ``obs.shutdown()`` still gets its buffered tail on disk (a
    hard kill or os._exit still loses at most ``flush_every - 1`` records).
    """

    def __init__(self, path: str | pathlib.Path, *,
                 flush_every: int = 64) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._pending = 0
        self.flush_every = max(1, int(flush_every))
        self.written = 0
        atexit.register(self.close)

    @classmethod
    def for_run_dir(cls, run_dir: str | pathlib.Path) -> "JsonlSink":
        """The standard run layout: ``<run_dir>/trace.jsonl``."""
        return cls(pathlib.Path(run_dir) / TRACE_FILENAME)

    def write(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, default=_jsonable) + "\n")
        self.written += 1
        self._pending += 1
        if self._pending >= self.flush_every:
            self._fh.flush()
            self._pending = 0

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()
        atexit.unregister(self.close)

    # Context-manager form so short-lived writers (sweep workers, tests)
    # can guarantee the buffered tail reaches disk on every exit path.
    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _jsonable(value: Any):
    """Fallback encoder: numpy scalars/arrays and other oddballs."""
    if hasattr(value, "item") and getattr(value, "size", 2) == 1:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)
