"""Bench-history regression tracking: is the perf trajectory still flat?

``bench_results/micro_kernels.json`` is a *snapshot* — each bench run
overwrites its section in place, so nothing ever notices a kernel getting
slower.  This module adds the missing time axis:

* every micro-benchmark run appends one JSON line per section to an
  **append-only history** (``bench_results/bench_history.jsonl``) holding
  the run's flat metrics (seconds per benchmark, plus peak-memory byte
  gauges from the condense-step bench) and tags identifying
  the measurement context (platform, numpy, cpu count, threads);
* :func:`compare_history` judges the newest value of every metric against
  a **trailing baseline** — the median of up to the prior ``window``
  entries whose tags match on the configured keys (different machines or
  thread counts never pollute each other's baselines) — and flags any
  metric slower than ``baseline * (1 + threshold)``;
* a timing may carry, under the row's ``probe_s``, the time of a fixed
  host probe the bench took next to it in the same process (no
  repository code).  Between rows that both carry one for a metric, its
  timings are compared scaled by it, so a host that is slower for a while
  reads as neither a regression nor a gain; a timing with a probe is never
  compared with one without;
* ``python -m repro obs regress`` renders the verdict table and exits
  non-zero on regressions (``--dry-run`` reports without failing), so a
  recorded bench run gets a trajectory verdict instead of just a file.
  It judges live metrics only — those the newest row of a section that
  :func:`metrics_from_snapshot` still extracts carries — and lists the
  rest of the history's metrics once as retired, without a verdict; the
  history file itself stays a complete record.

History lines are loaded tolerantly (a run killed mid-append leaves at
most one truncated line, which is skipped) and unknown metrics simply
report ``no-baseline`` until enough history accumulates.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import textwrap
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .sinks import read_jsonl_tolerant

__all__ = [
    "HISTORY_FILENAME",
    "DEFAULT_WINDOW",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MATCH_TAGS",
    "LIVE_SECTIONS",
    "MetricDelta",
    "RegressionReport",
    "default_history_path",
    "metrics_from_snapshot",
    "probes_from_snapshot",
    "append_history",
    "load_history",
    "compare_history",
    "check_regressions",
    "format_regress_report",
]

HISTORY_FILENAME = "bench_history.jsonl"
DEFAULT_WINDOW = 5
DEFAULT_THRESHOLD = 0.20
DEFAULT_MATCH_TAGS = ("platform", "threads")
#: The snapshot sections :func:`metrics_from_snapshot` extracts.  History
#: rows of any other section record benchmarks that no longer run.
LIVE_SECTIONS = ("kernels", "condense_step")


def default_history_path() -> pathlib.Path:
    """``bench_results/bench_history.jsonl`` of the repo checkout.

    Prefers the current working directory (how the bench scripts and
    tests run), falling back to the source tree this module was
    imported from.
    """
    for root in (pathlib.Path.cwd(),
                 pathlib.Path(__file__).resolve().parents[3]):
        candidate = root / "bench_results" / HISTORY_FILENAME
        if candidate.is_file():
            return candidate
    return pathlib.Path.cwd() / "bench_results" / HISTORY_FILENAME


# ----------------------------------------------------------------------
# Metric extraction
# ----------------------------------------------------------------------
def metrics_from_snapshot(data: Mapping[str, Any],
                          sections: Sequence[str] | None = None
                          ) -> dict[str, float]:
    """Flatten a ``micro_kernels.json`` snapshot into ``name -> seconds``.

    Names are path-like and stable: ``kernels/conv2d_fwd``,
    ``condense_step``, ``condense_step/<case>``,
    ``condense_step/peak_traced_bytes``.  Only the
    :data:`LIVE_SECTIONS` are read.
    """
    metrics: dict[str, float] = {}

    def want(section: str) -> bool:
        return sections is None or section in sections

    kernels = data.get("kernels") or {}
    if want("kernels"):
        for case, row in (kernels.get("cases") or {}).items():
            if isinstance(row, Mapping) and "fast_s" in row:
                metrics[f"kernels/{case}"] = float(row["fast_s"])
    condense = data.get("condense_step") or {}
    if want("condense_step"):
        if "fast_s" in condense:
            metrics["condense_step"] = float(condense["fast_s"])
        for case, row in (condense.get("cases") or {}).items():
            if isinstance(row, Mapping) and "fast_s" in row:
                metrics[f"condense_step/{case}"] = float(row["fast_s"])
        # The peak-memory gauge rides in the same history and is judged by
        # the same trailing-median rule as the timings: a segment that
        # starts allocating 20% more transient bytes is a regression too.
        if "peak_traced_bytes" in condense:
            metrics["condense_step/peak_traced_bytes"] = float(
                condense["peak_traced_bytes"])
    return metrics


def probes_from_snapshot(data: Mapping[str, Any],
                         sections: Sequence[str] | None = None
                         ) -> dict[str, float]:
    """``name -> probe_s`` for the timings of a snapshot that carry the
    host probe taken next to them (the kernel and condense-step cases),
    named as :func:`metrics_from_snapshot` names them."""
    probes: dict[str, float] = {}
    rows: list[tuple[str, Any]] = []
    if sections is None or "kernels" in sections:
        rows += [(f"kernels/{case}", row) for case, row in
                 ((data.get("kernels") or {}).get("cases") or {}).items()]
    if sections is None or "condense_step" in sections:
        condense = data.get("condense_step") or {}
        rows += [("condense_step", condense)]
        rows += [(f"condense_step/{case}", row) for case, row in
                 (condense.get("cases") or {}).items()]
    for name, row in rows:
        if isinstance(row, Mapping) and "probe_s" in row:
            probes[name] = float(row["probe_s"])
    return probes


# ----------------------------------------------------------------------
# History file
# ----------------------------------------------------------------------
def append_history(path: str | os.PathLike, section: str,
                   metrics: Mapping[str, float],
                   tags: Mapping[str, Any],
                   probes: Mapping[str, float] | None = None) -> dict:
    """Append one history line; returns the written entry.

    ``probes`` maps a timing's name to the host probe time taken next to
    it, for the timings that have one.
    """
    entry = {"section": section, "ts": time.time(),
             "tags": {key: value for key, value in sorted(tags.items())},
             "metrics": {name: float(value)
                         for name, value in sorted(metrics.items())}}
    if probes:
        entry["probe_s"] = {name: float(value)
                            for name, value in sorted(probes.items())}
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.flush()
    return entry


def load_history(path: str | os.PathLike) -> tuple[list[dict], int]:
    """(entries, skipped_lines) of a history file; missing file is empty."""
    path = pathlib.Path(path)
    if not path.is_file():
        return [], 0
    return read_jsonl_tolerant(path)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass
class MetricDelta:
    """One benchmark's newest value against its trailing baseline."""

    name: str
    newest: float
    baseline: float | None
    samples: int
    verdict: str  # "ok" | "regression" | "improved" | "no-baseline"

    @property
    def ratio(self) -> float | None:
        if self.baseline is None or self.baseline <= 0:
            return None
        return self.newest / self.baseline


@dataclass
class RegressionReport:
    """All metric verdicts of one comparison pass."""

    deltas: list[MetricDelta] = field(default_factory=list)
    #: Metrics of the history that no live bench emits; never judged.
    retired: list[str] = field(default_factory=list)
    window: int = DEFAULT_WINDOW
    threshold: float = DEFAULT_THRESHOLD
    skipped_lines: int = 0

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _tags_match(a: Mapping[str, Any], b: Mapping[str, Any],
                keys: Sequence[str]) -> bool:
    return all(a.get(key) == b.get(key) for key in keys)


def compare_history(entries: Iterable[Mapping[str, Any]], *,
                    window: int = DEFAULT_WINDOW,
                    threshold: float = DEFAULT_THRESHOLD,
                    match_tags: Sequence[str] = DEFAULT_MATCH_TAGS
                    ) -> RegressionReport:
    """Judge every metric's newest entry against its trailing baseline.

    For each metric name: the *newest* value is taken from the last
    history entry (file order) carrying it; the baseline is the median of
    up to ``window`` earlier values whose entry tags equal the newest
    entry's on every key in ``match_tags``.  When the newest entry carries
    a probe for the metric (``probe_s``), the earlier values are those of
    entries that carry one too, each scaled by ``newest probe / its probe``
    (what it would read at the newest entry's host speed); otherwise those
    of entries without one.  A metric regresses when
    ``newest >= baseline * (1 + threshold)``; symmetric improvements are
    reported but never fail.
    """
    entries = list(entries)
    report = RegressionReport(window=int(window), threshold=float(threshold))
    series: dict[str, list[tuple[float, Mapping[str, Any], float | None]]] = {}
    for entry in entries:
        tags = entry.get("tags") or {}
        probes = entry.get("probe_s") or {}
        for name, value in (entry.get("metrics") or {}).items():
            series.setdefault(name, []).append(
                (float(value), tags, probes.get(name)))

    for name in sorted(series):
        points = series[name]
        newest, newest_tags, newest_probe = points[-1]
        prior = [value if probe is None else value * newest_probe / probe
                 for value, tags, probe in points[:-1]
                 if _tags_match(tags, newest_tags, match_tags)
                 and (probe is None) == (newest_probe is None)]
        baseline_values = prior[-window:] if window > 0 else prior
        if not baseline_values:
            report.deltas.append(MetricDelta(name, newest, None, 0,
                                             "no-baseline"))
            continue
        baseline = statistics.median(baseline_values)
        if baseline > 0 and newest >= baseline * (1.0 + threshold):
            verdict = "regression"
        elif baseline > 0 and newest <= baseline * (1.0 - threshold):
            verdict = "improved"
        else:
            verdict = "ok"
        report.deltas.append(MetricDelta(name, newest, baseline,
                                         len(baseline_values), verdict))
    return report


def check_regressions(history_path: str | os.PathLike | None = None, *,
                      window: int = DEFAULT_WINDOW,
                      threshold: float = DEFAULT_THRESHOLD,
                      match_tags: Sequence[str] = DEFAULT_MATCH_TAGS
                      ) -> RegressionReport:
    """Load a history file and compare its live metrics (the ``repro obs
    regress`` core).

    A metric is live if the newest history row of a :data:`LIVE_SECTIONS`
    section carries it; every other metric of the file is reported as
    retired, without a verdict.
    """
    path = (pathlib.Path(history_path) if history_path is not None
            else default_history_path())
    entries, skipped = load_history(path)
    newest = {entry.get("section"): entry for entry in entries
              if entry.get("section") in LIVE_SECTIONS}
    live = {name for entry in newest.values()
            for name in entry.get("metrics") or {}}
    recorded = {name for entry in entries for name in entry.get("metrics") or {}}
    judged = [dict(entry, metrics={name: value for name, value
                                   in (entry.get("metrics") or {}).items()
                                   if name in live})
              for entry in entries]
    report = compare_history(judged, window=window, threshold=threshold,
                             match_tags=match_tags)
    report.retired = sorted(recorded - live)
    report.skipped_lines = skipped
    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_metric_value(name: str, value: float) -> str:
    """Timings render as milliseconds, ``*_bytes`` gauges human-readably."""
    if name.endswith("_bytes"):
        # Lazy import: repro.experiments transitively imports repro.obs.
        from ..experiments.reporting import format_bytes
        return format_bytes(value)
    return f"{value * 1e3:.2f}ms"


def format_regress_report(report: RegressionReport,
                          history_path: str | os.PathLike | None = None
                          ) -> str:
    """Render the verdict table in the repo's standard report style."""
    # Lazy import: repro.experiments transitively imports repro.obs.
    from ..experiments.reporting import format_table

    rows = []
    for delta in report.deltas:
        baseline = (_format_metric_value(delta.name, delta.baseline)
                    if delta.baseline is not None else "-")
        ratio = delta.ratio
        change = f"{(ratio - 1.0) * 100:+.1f}%" if ratio is not None else "-"
        rows.append([delta.name,
                     _format_metric_value(delta.name, delta.newest),
                     baseline, str(delta.samples), change, delta.verdict])
    header = []
    if history_path is not None:
        header.append(f"bench history: {history_path}")
    if report.skipped_lines:
        header.append(f"({report.skipped_lines} malformed history "
                      f"line(s) skipped)")
    retired = ([textwrap.fill(
        f"retired, not judged ({len(report.retired)} metrics no live bench "
        f"emits): " + ", ".join(report.retired), width=79)]
        if report.retired else [])
    if not report.deltas:
        header.append("no bench history yet — run the micro-benchmarks "
                      "to record a first entry")
        return "\n".join(header + retired)
    table = format_table(
        ["benchmark", "newest", f"baseline (median of <= "
         f"{report.window})", "n", "delta", "verdict"],
        rows, title="Bench-history regression check")
    summary = (f"{len(report.regressions)} regression(s) at "
               f">= {report.threshold:.0%} slowdown"
               if not report.ok else
               f"trajectory ok (no metric >= {report.threshold:.0%} "
               f"slower than its baseline)")
    return "\n".join(header + [table, summary] + retired)
