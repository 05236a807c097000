"""Structured telemetry for the DECO pipeline.

Its modules:

* :mod:`repro.obs.telemetry` — the process-wide registry of counters /
  gauges / histograms and nestable ``span`` timers; compiled down to
  no-ops while disabled so instrumented hot paths stay free.
* :mod:`repro.obs.sinks` — pluggable event sinks; the default run layout
  is one ``trace.jsonl`` per run directory.
* :mod:`repro.obs.summary` — renders a trace back into the repo's
  standard report tables (``repro obs summarize``).
* :mod:`repro.obs.memory` — the byte-accurate memory ledger: named
  accounts for every long-lived allocation class, high-water gauge, RSS
  sampling, tracemalloc deep audit.
* :mod:`repro.obs.trace` — Chrome trace-event export (``repro obs
  trace``): span flame + memory counter tracks + learner instant events,
  Perfetto-loadable.
* :mod:`repro.obs.health` — numerical-health sentinels: sampled finite
  checks at the matcher/optimizer hand-off points with ``record`` /
  ``skip-step`` / ``raise`` policies.
* :mod:`repro.obs.report` — self-contained single-file HTML run report
  (``repro obs report``) with a ``--json`` twin.

Hot-path call sites import the module functions (``obs.span``,
``obs.event``, ``obs.enabled``) rather than a registry object, so the
disabled path is a single flag check.
"""

from .export import (aggregate_worker_counters, config_digest,
                     merge_worker_shards, shard_path, worker_telemetry)
from .health import (HealthError, HealthIncident, HealthMonitor, get_monitor,
                     health_stats, scoped_policy)
from .memory import (DeepAuditReport, MemoryLedger, default_ledger,
                     track_object)
from .report import build_report_data, render_report_html, write_report
from .progress import SweepProgress
from .regress import (append_history, check_regressions, compare_history,
                      format_regress_report, load_history,
                      metrics_from_snapshot)
from .sinks import EventSink, JsonlSink, ListSink, read_jsonl_tolerant
from .telemetry import (Telemetry, collect_runtime_counters, counter, disable,
                        enable, enabled, event, gauge, get_telemetry, observe,
                        reset, scoped_telemetry, shutdown, snapshot, span)
from .summary import (load_events, load_events_with_stats, summarize_events,
                      summarize_events_data, summarize_trace,
                      summarize_trace_json)
from .trace import (build_trace, export_trace, trace_stats, validate_trace)

__all__ = [
    "Telemetry",
    "get_telemetry",
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
    "EventSink",
    "JsonlSink",
    "ListSink",
    "load_events",
    "summarize_events",
    "summarize_events_data",
    "summarize_trace",
    "summarize_trace_json",
    "MemoryLedger",
    "DeepAuditReport",
    "default_ledger",
    "track_object",
    "build_trace",
    "export_trace",
    "validate_trace",
    "trace_stats",
    "HealthError",
    "HealthIncident",
    "HealthMonitor",
    "get_monitor",
    "health_stats",
    "scoped_policy",
    "build_report_data",
    "render_report_html",
    "write_report",
]
