"""Export a telemetry run as Chrome trace-event JSON (Perfetto-loadable).

``repro obs trace DIR`` (or ``--trace OUT.json`` on any run) converts the
JSONL streams a ``--telemetry DIR`` run writes — the parent ``trace.jsonl``
plus the merged per-worker shards in ``workers.jsonl`` — into the Chrome
trace-event format that ``ui.perfetto.dev`` and ``chrome://tracing`` load
directly:

* **Span flame.**  Span records are emitted at span *exit* carrying
  ``ts`` (wall clock), ``dur_s`` (perf_counter) and ``depth``; the exporter
  reconstructs start times (``ts - dur``), rebuilds the nesting tree from
  the depth + end-order invariants of single-threaded emission, and clamps
  children inside their parents so the resulting ``B``/``E`` pairs always
  match and stay monotone per lane — ``ts`` and ``dur`` come from
  different clocks, so raw subtraction alone can violate nesting by a few
  microseconds.
* **One timeline, many lanes.**  Parent events render under pid 0; each
  worker shard record carries the ``worker_pid``/``task_index``/``seq``
  stamps PR 5 added, which map it onto pid = worker pid, tid = task index
  — every sweep task gets its own named track, aligned on the shared
  wall-clock axis.
* **Memory counter tracks.**  Per-segment ``memory`` events, throttled
  ``rss`` samples, and the byte-valued gauges of ``counters`` snapshots
  become ``C`` (counter) events, so the memory-account curves render
  alongside the span flame.
* **Instant markers.**  Per-segment learner events — ``segment`` (plus a
  ``retrain`` marker when the segment retrained), ``eval``, ``memory``,
  ``quality``, ``health``, ``resume`` — become thread-scoped ``i``
  (instant) events pinned to their lane, so health incidents and quality
  accounts line up against the spans that produced them.

:func:`validate_trace` re-checks the invariants the export guarantees
(matched B/E pairs, monotone timestamps per lane, parseable counter
tracks); the tests run it against real micro grids at ``jobs=1`` and
``jobs=2``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from .sinks import TRACE_FILENAME
from .summary import load_events_with_stats

__all__ = [
    "CHROME_TRACE_FILENAME",
    "build_trace",
    "export_trace",
    "validate_trace",
    "trace_stats",
]

CHROME_TRACE_FILENAME = "trace.chrome.json"

#: pid used for the parent process's lane (its real pid is not stamped).
PARENT_PID = 0

# Span-record fields that are structure, not user payload.
_SPAN_META_KEYS = frozenset({
    "type", "name", "ts", "dur_s", "depth",
    "seq", "config_hash", "task_index", "worker_pid",
})
# Counter sources: event type -> fields exported as counter tracks.
_MEMORY_EVENT_FIELDS = ("buffer_bytes", "model_bytes", "total_bytes",
                        "peak_bytes", "rss_bytes", "budget_bytes")
_RSS_EVENT_FIELDS = ("rss_bytes", "tracked_bytes", "high_water_bytes")
# Learner event types exported as instant ("i") markers on their lane.
_INSTANT_EVENT_TYPES = frozenset({
    "segment", "eval", "memory", "quality", "health", "resume",
})


def _lane(record: dict[str, Any]) -> tuple[int, int]:
    """(pid, tid) for one record: parent trace vs worker shard."""
    if "worker_pid" in record and "seq" in record:
        return int(record["worker_pid"]), int(record.get("task_index", 0))
    return PARENT_PID, 0


def _span_forest(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rebuild the span nesting tree for one lane.

    Records arrive in *end* order (spans emit at exit) from one thread, so
    when a span of depth ``d`` ends, every already-ended span of depth
    ``> d`` that has not yet found a parent is its descendant.  A single
    pending list therefore reconstructs the forest exactly.
    """
    pending: list[dict[str, Any]] = []
    for rec in records:
        ts = float(rec.get("ts", 0.0))
        dur = max(0.0, float(rec.get("dur_s", 0.0)))
        depth = int(rec.get("depth", 0))
        args = {k: v for k, v in rec.items() if k not in _SPAN_META_KEYS}
        node = {"name": str(rec.get("name", "?")), "start": ts - dur,
                "end": ts, "depth": depth, "args": args, "children": []}
        node["children"] = [n for n in pending if n["depth"] > depth]
        pending = [n for n in pending if n["depth"] <= depth]
        pending.append(node)
    return pending


def _clamp(node: dict[str, Any], lo: float, hi: float) -> None:
    """Force ``node`` (and recursively its children) inside ``[lo, hi]``.

    ``ts`` (time.time) and ``dur_s`` (perf_counter) come from different
    clocks, so reconstructed intervals can overhang their parents by
    microseconds; clamping restores strict nesting, which is what makes
    the emitted B/E sequence valid for any trace viewer.
    """
    node["start"] = min(max(node["start"], lo), hi)
    node["end"] = min(max(node["end"], node["start"]), hi)
    cursor = node["start"]
    for child in node["children"]:  # children are in end order
        _clamp(child, cursor, node["end"])
        cursor = child["end"]


def _emit_span(node: dict[str, Any], pid: int, tid: int, t0: float,
               out: list[dict[str, Any]]) -> None:
    begin = {"name": node["name"], "ph": "B", "pid": pid, "tid": tid,
             "ts": _us(node["start"], t0)}
    if node["args"]:
        begin["args"] = node["args"]
    out.append(begin)
    for child in node["children"]:
        _emit_span(child, pid, tid, t0, out)
    out.append({"name": node["name"], "ph": "E", "pid": pid, "tid": tid,
                "ts": _us(node["end"], t0)})


def _us(t: float, t0: float) -> float:
    return round((t - t0) * 1e6, 3)


def _counter_events(record: dict[str, Any], pid: int, t0: float
                    ) -> Iterable[dict[str, Any]]:
    rtype = record.get("type")
    ts = float(record.get("ts", t0))
    if rtype == "memory":
        fields = [(f"memory.{k}", record.get(k))
                  for k in _MEMORY_EVENT_FIELDS]
    elif rtype == "rss":
        fields = [(f"memory.{k}", record.get(k)) for k in _RSS_EVENT_FIELDS]
    elif rtype == "counters":
        # Byte-valued runtime gauges (ledger accounts) become counter
        # tracks; count gauges stay in the summarize tables where they
        # are readable.
        fields = [(k, v) for k, v in record.items()
                  if isinstance(v, (int, float))
                  and (k.startswith("memory.") or k.endswith("_bytes"))]
    else:
        return
    for name, value in fields:
        if not isinstance(value, (int, float)):
            continue
        yield {"name": name, "ph": "C", "pid": pid, "tid": 0,
               "ts": _us(ts, t0), "args": {"bytes": float(value)}}


def _instant_events(record: dict[str, Any], pid: int, tid: int, t0: float
                    ) -> Iterable[dict[str, Any]]:
    """Thread-scoped instant markers for one learner event record.

    Args keep only scalar payload fields — the list-valued per-class
    vectors of ``quality`` events stay in the summarize tables where they
    are readable.
    """
    rtype = str(record.get("type"))
    ts = float(record.get("ts", t0))
    args = {k: v for k, v in record.items()
            if k not in ("type", "ts", "seq", "config_hash", "task_index",
                         "worker_pid")
            and isinstance(v, (bool, int, float, str))}
    name = (f"health.{record.get('kind', 'incident')}"
            if rtype == "health" else rtype)
    yield {"name": name, "ph": "i", "s": "t", "pid": pid, "tid": tid,
           "ts": _us(ts, t0), "args": args}
    if rtype == "segment" and record.get("retrain"):
        yield {"name": "retrain", "ph": "i", "s": "t", "pid": pid,
               "tid": tid, "ts": _us(ts, t0),
               "args": {"segment": record.get("segment", -1)}}


def build_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Convert loaded telemetry events into a Chrome trace-event document."""
    lanes: dict[tuple[int, int], list[dict[str, Any]]] = {}
    lane_names: dict[tuple[int, int], str] = {}
    counters: list[tuple[dict[str, Any], int]] = []
    instants: list[tuple[dict[str, Any], tuple[int, int]]] = []
    starts: list[float] = []

    for record in events:
        lane = _lane(record)
        rtype = record.get("type")
        if rtype == "span":
            lanes.setdefault(lane, []).append(record)
            starts.append(float(record.get("ts", 0.0))
                          - max(0.0, float(record.get("dur_s", 0.0))))
        else:
            if "ts" in record:
                starts.append(float(record["ts"]))
            if rtype == "shard_start":
                digest = str(record.get("config_hash", ""))[:8]
                lane_names[lane] = f"task {lane[1]} [{digest}]"
            if rtype in ("memory", "rss", "counters"):
                counters.append((record, lane[0]))
            if rtype in _INSTANT_EVENT_TYPES:
                instants.append((record, lane))

    t0 = min(starts) if starts else 0.0
    trace_events: list[dict[str, Any]] = []

    pids = sorted({lane[0] for lane in lanes}
                  | {pid for _, pid in counters} | {PARENT_PID})
    for pid in pids:
        name = "repro parent" if pid == PARENT_PID else f"worker {pid}"
        trace_events.append({"name": "process_name", "ph": "M", "pid": pid,
                             "tid": 0, "args": {"name": name}})
    for lane in sorted(lanes):
        name = lane_names.get(
            lane, "main" if lane[0] == PARENT_PID else f"task {lane[1]}")
        trace_events.append({"name": "thread_name", "ph": "M",
                             "pid": lane[0], "tid": lane[1],
                             "args": {"name": name}})

    for lane in sorted(lanes):
        forest = _span_forest(lanes[lane])
        cursor = min(n["start"] for n in forest) if forest else t0
        end = max(n["end"] for n in forest) if forest else t0
        for root in forest:
            _clamp(root, cursor, end)
            cursor = root["end"]
        for root in forest:
            _emit_span(root, lane[0], lane[1], t0, trace_events)

    for record, pid in counters:
        trace_events.extend(_counter_events(record, pid, t0))
    for record, lane in instants:
        trace_events.extend(_instant_events(record, lane[0], lane[1], t0))

    meta = next((ev for ev in events if ev.get("type") == "run_start"), None)
    other: dict[str, Any] = {"source": "repro obs trace",
                             "events": len(events)}
    if meta is not None:
        other["command"] = meta.get("command")
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": other}


def export_trace(source: str | pathlib.Path,
                 output: str | pathlib.Path | None = None) -> pathlib.Path:
    """Read a telemetry run (dir or ``trace.jsonl``) and write the trace.

    Default output: ``<run_dir>/trace.chrome.json``.  Returns the written
    path.
    """
    source = pathlib.Path(source)
    events, _ = load_events_with_stats(source)
    run_dir = source if source.is_dir() else source.parent
    if source.name == TRACE_FILENAME:
        run_dir = source.parent
    out = (pathlib.Path(output) if output is not None
           else run_dir / CHROME_TRACE_FILENAME)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(build_trace(events)) + "\n", encoding="utf-8")
    return out


def validate_trace(trace: dict[str, Any]) -> list[str]:
    """Check trace-event invariants; returns a list of problems (empty = ok).

    Verifies what a viewer needs: per (pid, tid) lane the duration events
    appear with non-decreasing timestamps and every ``B`` is closed by a
    matching ``E`` (same name, LIFO order); counter events carry numeric
    values; instant events carry a valid scope.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    stacks: dict[tuple[int, int], list[str]] = {}
    last_ts: dict[tuple[int, int], float] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        lane = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if ph in ("B", "E"):
            if ts < last_ts.get(lane, float("-inf")):
                problems.append(
                    f"event {i}: ts {ts} decreases on lane {lane}")
            last_ts[lane] = ts
            stack = stacks.setdefault(lane, [])
            if ph == "B":
                stack.append(ev.get("name", "?"))
            else:
                if not stack:
                    problems.append(f"event {i}: E without open B on "
                                    f"lane {lane}")
                elif stack[-1] != ev.get("name"):
                    problems.append(
                        f"event {i}: E {ev.get('name')!r} does not match "
                        f"open B {stack[-1]!r} on lane {lane}")
                    stack.pop()
                else:
                    stack.pop()
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"event {i}: counter {ev.get('name')!r} "
                                f"has non-numeric args")
        elif ph == "i":
            scope = ev.get("s")
            if scope not in (None, "t", "p", "g"):
                problems.append(f"event {i}: instant {ev.get('name')!r} "
                                f"has invalid scope {scope!r}")
        else:
            problems.append(f"event {i}: unknown phase {ph!r}")
    for lane, stack in stacks.items():
        if stack:
            problems.append(f"lane {lane}: {len(stack)} unclosed B "
                            f"event(s): {stack[-3:]}")
    return problems


def trace_stats(trace: dict[str, Any]) -> dict[str, Any]:
    """Shape summary of a trace document (for smoke checks and the CLI)."""
    events = trace.get("traceEvents") or []
    lanes = {(ev.get("pid"), ev.get("tid"))
             for ev in events if ev.get("ph") == "B"}
    counter_tracks = {ev.get("name") for ev in events if ev.get("ph") == "C"}
    return {
        "events": len(events),
        "span_events": sum(1 for ev in events if ev.get("ph") in ("B", "E")),
        "instant_events": sum(1 for ev in events if ev.get("ph") == "i"),
        "span_lanes": len(lanes),
        "pids": len({pid for pid, _ in lanes} if lanes else set()),
        "counter_tracks": len(counter_tracks),
        "memory_counter_tracks": sum(
            1 for name in counter_tracks
            if isinstance(name, str)
            and (name.startswith("memory.") or name.endswith("_bytes"))),
    }
