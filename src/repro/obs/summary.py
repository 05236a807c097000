"""Turn a telemetry JSONL trace back into report tables.

Consumes the run layout written by :class:`repro.obs.sinks.JsonlSink`
(either the ``trace.jsonl`` file itself or its run directory) and renders
the same monospace tables the experiment reports use
(:mod:`repro.experiments.reporting`):

* **Segments** — one row per ``segment`` event: active classes, pseudo-label
  acceptance, vote margin, matching/discrimination losses, buffer drift,
  retrain trigger;
* **Condensation quality** — one row per (segment, class) from the
  ``quality`` events: pseudo-label precision against ground truth, slot
  age/updates/drift, buffer occupancy, and the real/synthetic gradient
  cosine;
* **Health incidents** — one row per ``health`` event: op, kind, segment,
  iteration, policy action, and the offending value's statistics;
* **Span timings** — ``span`` events aggregated by name (count / total /
  mean / p50 / p95 / p99 / max milliseconds, quantiles estimated from the
  same bounded log-bucket scheme ``Telemetry.observe`` uses), covering the
  matcher's five forward/backward passes and the learner stages;
* **Runtime counters** — the last ``counters`` snapshot: ledger accounts
  and health totals.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterable

from .export import WORKERS_FILENAME, aggregate_worker_counters
from .sinks import TRACE_FILENAME, read_jsonl_tolerant
from .telemetry import QUANTILE_BUCKETS, _bucket_index, bucket_quantiles


def _format_table(headers, rows, title=None) -> str:
    # Lazy import: repro.experiments transitively imports repro.core, which
    # imports repro.obs — a top-level import here would close that cycle.
    from ..experiments.reporting import format_table
    return format_table(headers, rows, title=title)

__all__ = ["load_events", "load_events_with_stats", "summarize_events",
           "summarize_events_data", "summarize_trace", "summarize_trace_json"]


def load_events_with_stats(
        path: str | pathlib.Path) -> tuple[list[dict[str, Any]], int]:
    """Read a trace plus merged worker telemetry; returns (events, skipped).

    Accepts the ``trace.jsonl`` file or its run directory; for a directory
    the merged worker shard file (``workers.jsonl``, when the run produced
    one) is appended after the parent trace.  Unparseable lines — the
    truncated tail a killed worker or a crashed parent leaves — are
    skipped and counted instead of raising, matching the resume journal's
    crash tolerance.
    """
    path = pathlib.Path(path)
    extra: list[pathlib.Path] = []
    if path.is_dir():
        workers = path / WORKERS_FILENAME
        if workers.is_file():
            extra.append(workers)
        path = path / TRACE_FILENAME
    if not path.exists():
        raise FileNotFoundError(f"no telemetry trace at {path}")
    events, skipped = read_jsonl_tolerant(path)
    for source in extra:
        more, more_skipped = read_jsonl_tolerant(source)
        events.extend(more)
        skipped += more_skipped
    return events, skipped


def load_events(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Read a JSONL trace; accepts the file or its run directory."""
    return load_events_with_stats(path)[0]


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _segment_rows(events: Iterable[dict]) -> list[list[str]]:
    rows = []
    for ev in events:
        if ev.get("type") != "segment":
            continue
        total = ev.get("pseudo_labels_total")
        kept = ev.get("pseudo_labels_kept")
        kept_cell = (f"{kept}/{total}" if kept is not None and total is not None
                     else "-")
        active = ev.get("active_classes")
        rows.append([
            _fmt(ev.get("segment")),
            ",".join(map(str, active)) if active else "-",
            kept_cell,
            _fmt(ev.get("retained_label_accuracy")),
            _fmt(ev.get("vote_margin")),
            _fmt(ev.get("matching_loss")),
            _fmt(ev.get("discrimination_loss")),
            _fmt(ev.get("alpha")),
            _fmt(ev.get("buffer_drift_l2")),
            _fmt(ev.get("retrain", False)),
        ])
    return rows


def _span_rows(events: Iterable[dict]) -> list[list[str]]:
    agg: dict[str, list] = {}
    for ev in events:
        if ev.get("type") != "span":
            continue
        name = ev.get("name", "?")
        dur = float(ev.get("dur_s", 0.0))
        entry = agg.get(name)
        if entry is None:
            buckets = [0] * QUANTILE_BUCKETS
            buckets[_bucket_index(dur)] = 1
            agg[name] = [1, dur, dur, dur, buckets]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] = max(entry[2], dur)
            entry[3] = min(entry[3], dur)
            entry[4][_bucket_index(dur)] += 1
    rows = []
    for name in sorted(agg, key=lambda n: -agg[n][1]):
        count, total, peak, floor, buckets = agg[name]
        q = bucket_quantiles(buckets, int(count), floor, peak)
        rows.append([name, str(int(count)), f"{total * 1e3:.1f}",
                     f"{total / count * 1e3:.3f}",
                     f"{q['p50'] * 1e3:.3f}", f"{q['p95'] * 1e3:.3f}",
                     f"{q['p99'] * 1e3:.3f}", f"{peak * 1e3:.3f}"])
    return rows


def _at(values, index: int):
    return values[index] if isinstance(values, list) and index < len(values) \
        else None


def _quality_rows(events: Iterable[dict]) -> list[list[str]]:
    """One row per (segment, class) from the ``quality`` events."""
    rows = []
    for ev in events:
        if ev.get("type") != "quality":
            continue
        classes = ev.get("classes") or []
        for i, c in enumerate(classes):
            rows.append([
                _fmt(ev.get("segment")),
                str(c),
                _fmt(_at(ev.get("precision"), i)),
                _fmt(_at(ev.get("kept"), i)),
                _fmt(_at(ev.get("updates"), i)),
                _fmt(_at(ev.get("ages"), i)),
                _fmt(_at(ev.get("drift_l2"), i)),
                _fmt(ev.get("occupancy")),
                _fmt(ev.get("grad_cosine")),
            ])
    return rows


def _health_rows(events: Iterable[dict]) -> list[list[str]]:
    """One row per ``health`` incident event."""
    rows = []
    for ev in events:
        if ev.get("type") != "health":
            continue
        detail = " ".join(f"{key}={_fmt(ev[key])}"
                          for key in ("nan", "inf", "layer", "value",
                                      "grad_norm", "finite_min", "finite_max")
                          if key in ev) or "-"
        rows.append([str(ev.get("op", "?")), str(ev.get("kind", "?")),
                     _fmt(ev.get("segment")), _fmt(ev.get("iteration")),
                     str(ev.get("action", "?")), detail])
    return rows


def _fmt_bytes(value: Any) -> str:
    from ..experiments.reporting import format_bytes  # lazy, cf. _format_table
    if value is None:
        return "-"
    return format_bytes(value)


def _memory_rows(events: Iterable[dict]) -> list[list[str]]:
    """One row per ``memory`` event (per-segment learner footprint)."""
    rows = []
    for ev in events:
        if ev.get("type") != "memory":
            continue
        budget = ev.get("budget_bytes")
        ok = ev.get("budget_ok")
        rows.append([
            _fmt(ev.get("segment")),
            _fmt_bytes(ev.get("buffer_bytes")),
            _fmt_bytes(ev.get("model_bytes")),
            _fmt_bytes(ev.get("total_bytes")),
            _fmt_bytes(ev.get("peak_bytes")),
            _fmt_bytes(budget) if budget else "-",
            "-" if ok is None else ("ok" if ok else "OVER"),
        ])
    return rows


def _counter_rows(events: Iterable[dict]) -> list[list[str]]:
    last = None
    for ev in events:
        if ev.get("type") == "counters":
            last = ev
    if last is None:
        return []
    skip = {"type", "ts"}
    return [[key, _fmt(last[key], digits=0)]
            for key in sorted(last) if key not in skip]


def _sweep_rows(events: Iterable[dict]) -> list[list[str]]:
    rows = []
    for ev in events:
        if ev.get("type") != "sweep_task":
            continue
        config = ev.get("config", {})
        desc = ", ".join(f"{k}={v}" for k, v in sorted(config.items())
                         if k != "method") or "-"
        rows.append([str(ev.get("index", "?")),
                     str(config.get("method", "?")), desc,
                     str(ev.get("worker_pid", "?")),
                     f"{float(ev.get('dur_s', 0.0)):.2f}",
                     "ok" if ev.get("ok", True) else "FAILED"])
    return rows


def _sweep_worker_rows(events: Iterable[dict]) -> list[list[str]]:
    rows = []
    for ev in events:
        if ev.get("type") != "sweep_worker":
            continue
        wall = float(ev.get("wall_s", 0.0))
        busy = float(ev.get("busy_s", 0.0))
        util = busy / wall if wall > 0 else 0.0
        rows.append([str(ev.get("worker_pid", "?")), f"{busy:.2f}",
                     f"{wall:.2f}", f"{util:.0%}"])
    return rows


def _worker_shard_rows(events: Iterable[dict]) -> list[list[str]]:
    """Per-worker breakdown of merged shard telemetry (``workers.jsonl``)."""
    per_worker: dict[int, dict[str, Any]] = {}
    for ev in events:
        if "seq" not in ev or "worker_pid" not in ev:
            continue  # not a shard record
        stats = per_worker.setdefault(int(ev["worker_pid"]),
                                      {"events": 0, "tasks": set(),
                                       "span_s": 0.0})
        stats["events"] += 1
        stats["tasks"].add(ev.get("task_index"))
        if ev.get("type") == "span":
            stats["span_s"] += float(ev.get("dur_s", 0.0))
    rows = []
    for pid in sorted(per_worker):
        stats = per_worker[pid]
        rows.append([str(pid), str(len(stats["tasks"])),
                     str(int(stats["events"])),
                     f"{stats['span_s'] * 1e3:.1f}"])
    return rows


def _config_shard_rows(events: Iterable[dict]) -> list[list[str]]:
    """Per-config breakdown of merged shard telemetry."""
    per_config: dict[str, dict[str, Any]] = {}
    for ev in events:
        if "seq" not in ev or "config_hash" not in ev:
            continue
        stats = per_config.setdefault(
            str(ev["config_hash"]),
            {"desc": "-", "worker": "?", "events": 0, "span_s": 0.0})
        stats["events"] += 1
        stats["worker"] = str(ev.get("worker_pid", "?"))
        if ev.get("type") == "shard_start":
            config = ev.get("config") or {}
            stats["desc"] = ", ".join(
                f"{k}={v}" for k, v in sorted(config.items())) or "-"
        elif ev.get("type") == "span":
            stats["span_s"] += float(ev.get("dur_s", 0.0))
    rows = []
    for digest in sorted(per_config):
        stats = per_config[digest]
        rows.append([digest, stats["desc"], stats["worker"],
                     str(int(stats["events"])),
                     f"{stats['span_s'] * 1e3:.1f}"])
    return rows


def _worker_counter_rows(events: list[dict]) -> list[list[str]]:
    totals = aggregate_worker_counters(events)
    return [[name, _fmt(value, digits=0)] for name, value in sorted(totals.items())]


#: (key, title, headers, row builder) — the single source both the rendered
#: and the ``--json`` summaries are assembled from.
_TABLE_SPECS = (
    ("segments", "Segments",
     ["segment", "active", "kept/total", "kept-acc", "vote-margin",
      "match-loss", "disc-loss", "alpha", "drift-L2", "retrain"],
     _segment_rows),
    ("quality", "Condensation quality (per class)",
     ["segment", "class", "precision", "kept", "updates", "age", "drift-L2",
      "occupancy", "grad-cos"], _quality_rows),
    ("health", "Health incidents",
     ["op", "kind", "segment", "iter", "action", "detail"], _health_rows),
    ("spans", "Span timings",
     ["span", "count", "total-ms", "mean-ms", "p50-ms", "p95-ms", "p99-ms",
      "max-ms"], _span_rows),
    ("memory", "Memory footprint (per segment)",
     ["segment", "buffer", "model", "total", "peak", "budget", "status"],
     _memory_rows),
    ("sweep_tasks", "Sweep tasks",
     ["#", "method", "config", "pid", "seconds", "status"], _sweep_rows),
    ("sweep_workers", "Sweep workers",
     ["worker pid", "busy-s", "wall-s", "utilization"], _sweep_worker_rows),
    ("worker_shards", "Worker telemetry (merged shards)",
     ["worker pid", "tasks", "events", "span-total-ms"], _worker_shard_rows),
    ("config_shards", "Per-config telemetry",
     ["config", "point", "worker", "events", "span-total-ms"],
     _config_shard_rows),
    ("worker_counters", "Worker counters (aggregated)",
     ["counter", "total"], _worker_counter_rows),
    ("counters", "Runtime counters", ["counter", "value"], _counter_rows),
)


def summarize_events_data(events: list[dict[str, Any]]) -> dict[str, Any]:
    """The summary as one JSON-ready document mirroring the rendered tables.

    Stable shape for external dashboards: ``{"events": N, "command": ...,
    "tables": {key: {"title", "headers", "rows"}}}`` where ``rows`` hold
    the same (string) cells the ASCII tables render.  Empty tables are
    omitted, as in the text form.
    """
    meta = next((ev for ev in events if ev.get("type") == "run_start"), None)
    tables: dict[str, Any] = {}
    for key, title, headers, builder in _TABLE_SPECS:
        rows = builder(events)
        if rows:
            tables[key] = {"title": title, "headers": headers, "rows": rows}
    return {
        "events": len(events),
        "command": None if meta is None else meta.get("command"),
        "tables": tables,
    }


def summarize_events(events: list[dict[str, Any]]) -> str:
    """Render the trace as the standard report tables."""
    data = summarize_events_data(events)
    sections = []
    for key, title, headers, _ in _TABLE_SPECS:
        table = data["tables"].get(key)
        if table is not None:
            sections.append(_format_table(headers, table["rows"], title=title))
        elif key == "segments":
            sections.append("Segments\n(no segment events in trace)")

    command = data["command"]
    if command is not None:
        header = (f"telemetry trace: command={command} "
                  f"({len(events)} events)")
    else:
        header = f"telemetry trace: {len(events)} events"
    return "\n\n".join([header] + sections)


def summarize_trace(path: str | pathlib.Path) -> str:
    """Load a trace file/run directory and render the summary."""
    events, skipped = load_events_with_stats(path)
    text = summarize_events(events)
    if skipped:
        text += (f"\n\n({skipped} malformed line(s) skipped — truncated "
                 f"tail of a killed writer)")
    return text


def summarize_trace_json(path: str | pathlib.Path) -> dict[str, Any]:
    """Load a trace file/run directory and return the JSON summary document."""
    events, skipped = load_events_with_stats(path)
    data = summarize_events_data(events)
    data["skipped_lines"] = skipped
    return data
