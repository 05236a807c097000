"""Process-wide telemetry registry: counters, gauges, histograms, spans.

The observability layer has one hard requirement: when disabled (the
default) it must cost essentially nothing on the condensation hot path —
no allocations, no string formatting, no clock reads.  The design keeps
every hot-path call to a single attribute check:

* :func:`span` returns a module-level no-op singleton while disabled, so
  ``with obs.span("pass.g_real"):`` allocates nothing;
* :func:`counter` / :func:`gauge` / :func:`observe` return immediately on
  the same check;
* only :func:`enable` installs a sink and makes those calls live.

When enabled, spans time themselves with ``perf_counter``, fold their
duration into a bounded histogram aggregate (count/total/min/max plus a
fixed array of log-spaced buckets — never a value list), and emit one
record to the active sink.  The buckets make p50/p95/p99 estimates
available in :meth:`Telemetry.snapshot` at zero marginal memory: one
64-slot integer array per histogram, each slot covering one power of two,
so the quantile error is bounded by a factor of ``sqrt(2)`` and clamped
into the observed ``[min, max]``.  Sinks are pluggable
(:mod:`repro.obs.sinks`); the default run layout is one JSONL file with one
record per event, consumed by :mod:`repro.obs.summary`.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Any

from .memory import DISK_ACCOUNT_PREFIX, default_ledger
from .sinks import EventSink, JsonlSink

__all__ = [
    "QUANTILE_BUCKETS",
    "bucket_quantiles",
    "Telemetry",
    "get_telemetry",
    "scoped_telemetry",
    "enable",
    "disable",
    "enabled",
    "span",
    "counter",
    "gauge",
    "observe",
    "event",
    "snapshot",
    "reset",
    "shutdown",
    "collect_runtime_counters",
]


class _NoopSpan:
    """Shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()

# ----------------------------------------------------------------------
# Log-bucketed quantile estimation
# ----------------------------------------------------------------------
#: Number of power-of-two buckets per histogram (fixed; no value lists).
QUANTILE_BUCKETS = 64
#: Bucket ``i`` covers ``[2**(i - _BUCKET_BIAS), 2**(i - _BUCKET_BIAS + 1))``;
#: bias 32 spans ~2.3e-10 .. ~4.3e9, comfortably covering sub-microsecond
#: span durations through multi-hour totals.  Bucket 0 additionally absorbs
#: everything below the range (including zero and negative values).
_BUCKET_BIAS = 32


def _bucket_index(value: float) -> int:
    """Bucket slot for one observed value."""
    if not value > 0.0:  # zero, negative, NaN -> underflow bucket
        return 0
    exp = math.frexp(value)[1]  # value = m * 2**exp with 0.5 <= m < 1
    return min(QUANTILE_BUCKETS - 1, max(0, exp + _BUCKET_BIAS - 1))


def _bucket_quantile(buckets: list[int], count: int, q: float,
                     lo: float, hi: float) -> float:
    """Estimate the ``q``-quantile from a bucket CDF, clamped to [lo, hi]."""
    if count <= 0:
        return float("nan")
    rank = max(1, math.ceil(q * count))
    cum = 0
    index = QUANTILE_BUCKETS - 1
    for i, n in enumerate(buckets):
        cum += n
        if cum >= rank:
            index = i
            break
    # Geometric bucket midpoint; the clamp makes single-sample and
    # single-bucket histograms exact.
    estimate = 2.0 ** (index - _BUCKET_BIAS + 0.5)
    return min(max(estimate, lo), hi)


def bucket_quantiles(buckets: list[int], count: int, lo: float, hi: float,
                     qs: tuple[float, ...] = (0.5, 0.95, 0.99)
                     ) -> dict[str, float]:
    """``{"p50": ..., ...}`` estimates from one bounded bucket array.

    Shared by :meth:`Telemetry.snapshot` and the summarize span table so
    both report the same estimator.
    """
    return {f"p{int(q * 100)}": _bucket_quantile(buckets, count, q, lo, hi)
            for q in qs}


class _Span:
    """A live, nestable timer: records a histogram sample and sink event."""

    __slots__ = ("_registry", "name", "fields", "_t0", "depth", "_mem0")

    def __init__(self, registry: "Telemetry", name: str,
                 fields: dict[str, Any] | None) -> None:
        self._registry = registry
        self.name = name
        self.fields = fields
        self.depth = 0
        self._t0 = 0.0
        self._mem0 = 0

    def __enter__(self) -> "_Span":
        reg = self._registry
        self.depth = reg._depth
        reg._depth += 1
        # Plain int read: cheap enough for every span.
        self._mem0 = default_ledger.ram_recorded_bytes
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._t0
        mem_delta = default_ledger.ram_recorded_bytes - self._mem0
        reg = self._registry
        reg._depth -= 1
        reg.observe(f"span.{self.name}", elapsed)
        record = {"type": "span", "name": self.name,
                  "dur_s": elapsed, "depth": self.depth}
        if mem_delta:
            record["mem_delta_bytes"] = mem_delta
        if self.fields:
            record.update(self.fields)
        reg.event_record(record)
        return False


class Telemetry:
    """Registry of counters/gauges/histograms plus the active event sink."""

    def __init__(self) -> None:
        self.enabled = False
        self.sink: EventSink | None = None
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        # name -> [count, total, min, max, buckets]; bounded regardless of
        # run length (buckets is a fixed QUANTILE_BUCKETS-slot int list).
        self.histograms: dict[str, list] = {}
        self._depth = 0

    # -- lifecycle ---------------------------------------------------------
    def enable(self, sink: EventSink | None = None) -> None:
        self.enabled = True
        if sink is not None:
            self.sink = sink

    def disable(self) -> None:
        self.enabled = False

    def shutdown(self) -> None:
        """Flush and detach the sink, then disable."""
        self.enabled = False
        if self.sink is not None:
            self.sink.close()
            self.sink = None

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self._depth = 0

    # -- metrics -----------------------------------------------------------
    def counter(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into the bounded histogram aggregate."""
        if not self.enabled:
            return
        agg = self.histograms.get(name)
        if agg is None:
            buckets = [0] * QUANTILE_BUCKETS
            buckets[_bucket_index(value)] = 1
            self.histograms[name] = [1, value, value, value, buckets]
        else:
            agg[0] += 1
            agg[1] += value
            agg[2] = min(agg[2], value)
            agg[3] = max(agg[3], value)
            agg[4][_bucket_index(value)] += 1

    def span(self, name: str, **fields: Any) -> _Span | _NoopSpan:
        """Nestable timer; a no-op singleton while disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, fields or None)

    # -- events ------------------------------------------------------------
    def event(self, type_: str, **fields: Any) -> None:
        if not self.enabled:
            return
        record = {"type": type_}
        record.update(fields)
        self.event_record(record)

    def event_record(self, record: dict[str, Any]) -> None:
        if not self.enabled or self.sink is None:
            return
        record.setdefault("ts", time.time())
        self.sink.write(record)

    # -- introspection -----------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Current registry contents as plain JSON-serializable dicts."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {"count": int(agg[0]), "total": agg[1],
                       "min": agg[2], "max": agg[3],
                       "mean": agg[1] / agg[0] if agg[0] else float("nan"),
                       **bucket_quantiles(agg[4], int(agg[0]),
                                          agg[2], agg[3])}
                for name, agg in self.histograms.items()
            },
        }


#: The process-wide registry used by the instrumented hot paths.
_DEFAULT = Telemetry()


def get_telemetry() -> Telemetry:
    return _DEFAULT


@contextlib.contextmanager
def scoped_telemetry(registry: Telemetry):
    """Temporarily make ``registry`` the process-default registry.

    Every module-level call (``obs.span``, ``obs.counter``, ...) resolves
    the default registry at call time, so swapping it reroutes all
    instrumented hot paths for the duration of the ``with`` block.  This is
    how sweep workers isolate a task's telemetry into its own shard: the
    task runs under a fresh registry + shard sink while the (disabled)
    parent-inherited registry is parked and restored afterwards.
    """
    global _DEFAULT
    saved = _DEFAULT
    _DEFAULT = registry
    try:
        yield registry
    finally:
        _DEFAULT = saved


def enable(sink_or_dir: EventSink | str | None = None) -> Telemetry:
    """Enable the default registry.

    Accepts a ready sink, a run-directory path (a ``trace.jsonl`` sink is
    created inside it), or ``None`` to enable metrics without an event sink.
    """
    if isinstance(sink_or_dir, (str,)) or hasattr(sink_or_dir, "__fspath__"):
        _DEFAULT.enable(JsonlSink.for_run_dir(sink_or_dir))
    else:
        _DEFAULT.enable(sink_or_dir)
    return _DEFAULT


def disable() -> None:
    _DEFAULT.disable()


def shutdown() -> None:
    _DEFAULT.shutdown()


def enabled() -> bool:
    return _DEFAULT.enabled


def span(name: str, **fields: Any):
    if not _DEFAULT.enabled:
        return _NOOP_SPAN
    return _DEFAULT.span(name, **fields)


def counter(name: str, value: float = 1.0) -> None:
    _DEFAULT.counter(name, value)


def gauge(name: str, value: float) -> None:
    _DEFAULT.gauge(name, value)


def observe(name: str, value: float) -> None:
    _DEFAULT.observe(name, value)


def event(type_: str, **fields: Any) -> None:
    _DEFAULT.event(type_, **fields)


def snapshot() -> dict[str, Any]:
    return _DEFAULT.snapshot()


def reset() -> None:
    _DEFAULT.reset()


def collect_runtime_counters(registry: Telemetry | None = None, *,
                             emit: bool = True) -> dict[str, float]:
    """Pull the health-sentinel totals and the memory-ledger accounts into
    the registry as gauges.

    Neither is instrumented push-style on the hot path: this snapshots
    them on demand (end of segment, end of run, benchmark epilogue) and
    optionally emits one ``counters`` event to the sink.
    """
    registry = registry or _DEFAULT
    values: dict[str, float] = {}
    from .health import health_stats  # local: health imports this module
    for key, val in health_stats().items():
        values[f"health.{key}"] = float(val)
    mem_totals = default_ledger.totals()
    for account, nbytes in mem_totals.items():
        values[f"memory.{account}_bytes"] = float(nbytes)
    values["memory.tracked_bytes"] = float(sum(
        v for a, v in mem_totals.items()
        if not a.startswith(DISK_ACCOUNT_PREFIX)))
    values["memory.high_water_bytes"] = float(default_ledger.high_water_bytes)
    values["memory.rss_bytes"] = float(default_ledger.rss_bytes())
    if registry.enabled:
        for name, value in values.items():
            registry.gauge(name, value)
        if emit:
            registry.event("counters", **values)
    return values
