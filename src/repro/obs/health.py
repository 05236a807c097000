"""Numerical-health sentinels for the condensation/learning hot paths.

One NaN minted in a ±ε pass silently poisons the condensed buffer and
every model retrained from it afterwards.  This module watches for it with
cheap finite sentinels at the matcher's loss/gradient hand-off points and
on the optimizer's update path, with a configurable response policy:

``off``
    Sentinels compiled out: every check is one attribute read.
``record`` (default)
    Incidents are recorded (bounded list + ``health`` telemetry event +
    ``health.*`` counters) and execution continues unchanged — the
    always-on mode; it never alters a single computed byte.
``skip-step``
    A check on a value that feeds a buffer/parameter update returns
    ``False`` so the caller drops that update: the buffer stays finite
    while the run continues.
``raise``
    The first incident raises :class:`HealthError` carrying the op name,
    segment, iteration, and the offending array's statistics.

Sentinel cost discipline: the finite probe is ``sum()`` over a strided
subsample (``NaN``/``Inf`` are absorbing for addition), so no boolean
temporary is ever allocated and huge arrays are sampled, not scanned.
Only when the probe trips does a detailed scan count NaN/Inf entries for
the incident record — a sum that overflowed to ``inf`` on genuinely
finite data is therefore *not* an incident.

Counter parity: every live ``obs.counter`` bump here happens on code
paths that run inside sweep tasks with per-task-deterministic cadence
(per-instance sampling counters, never process-global call counts), so
``health.*`` aggregates match between ``jobs=1`` and ``jobs=N`` runs
(``tests/obs/test_worker_export.py`` compares a real grid's counters at
both).  Module-level totals are pulled as ``health.*`` gauges by
:func:`repro.obs.telemetry.collect_runtime_counters`.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import telemetry as _telemetry

__all__ = [
    "HEALTH_POLICIES",
    "HealthError",
    "HealthIncident",
    "HealthMonitor",
    "get_monitor",
    "scoped_policy",
    "health_stats",
]

#: Accepted values of the monitor policy (and of ``REPRO_HEALTH``).
HEALTH_POLICIES = ("off", "record", "skip-step", "raise")

#: Environment override for the default monitor's policy.
POLICY_ENV = "REPRO_HEALTH"


class HealthError(RuntimeError):
    """A numerical-health incident under the ``raise`` policy.

    Carries the context an operator needs to attribute the failure:
    ``op`` (the instrumented hand-off point), ``segment`` / ``iteration``
    (where in the run), and ``stats`` (the offending value's statistics —
    NaN/Inf counts, finite min/max, sample size).
    """

    def __init__(self, message: str, *, op: str, kind: str,
                 segment: int | None = None, iteration: int | None = None,
                 stats: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.op = op
        self.kind = kind
        self.segment = segment
        self.iteration = iteration
        self.stats = dict(stats or {})


@dataclass
class HealthIncident:
    """One recorded health violation."""

    op: str
    kind: str  # "nonfinite"
    segment: int | None
    iteration: int | None
    action: str  # the policy in force when the incident fired
    stats: dict[str, Any] = field(default_factory=dict)

    def as_event_fields(self) -> dict[str, Any]:
        fields: dict[str, Any] = {"op": self.op, "kind": self.kind,
                                  "action": self.action}
        if self.segment is not None:
            fields["segment"] = self.segment
        if self.iteration is not None:
            fields["iteration"] = self.iteration
        fields.update(self.stats)
        return fields


def _finite_probe(array: np.ndarray, max_sample: int) -> np.ndarray:
    """The (possibly strided) view the sentinel sums over."""
    flat = array.reshape(-1) if array.flags.c_contiguous else array.ravel()
    if flat.size > max_sample:
        stride = -(-flat.size // max_sample)  # ceil div
        flat = flat[::stride]
    return flat

def _array_stats(probe: np.ndarray) -> dict[str, Any]:
    """Detailed statistics of a probe that failed the fast finite test."""
    finite = np.isfinite(probe)
    nan = int(np.isnan(probe).sum())
    inf = int(probe.size - int(finite.sum()) - nan)
    stats: dict[str, Any] = {"checked": int(probe.size), "nan": nan,
                             "inf": inf}
    if finite.any():
        vals = probe[finite]
        stats["finite_min"] = float(vals.min())
        stats["finite_max"] = float(vals.max())
    return stats


class HealthMonitor:
    """Sampled numerical-health sentinels with a configurable policy.

    One module-level instance (:func:`get_monitor`) is consulted by the
    instrumented hot paths; all checks are no-ops bar one attribute read
    while the policy is ``off``.
    """

    def __init__(self, policy: str = "record", *,
                 max_sample: int = 1 << 16, update_every: int = 4,
                 max_incidents: int = 64) -> None:
        self.set_policy(policy)
        #: Largest number of elements the finite probe sums per array.
        self.max_sample = int(max_sample)
        #: Optimizer-update checks run every this many ``step()`` calls
        #: (per optimizer instance, so the cadence is task-deterministic).
        self.update_every = max(1, int(update_every))
        self.max_incidents = int(max_incidents)
        self.incidents: list[HealthIncident] = []
        self.segment: int | None = None
        self._totals = {"checks": 0, "incidents": 0, "nonfinite": 0,
                        "skip_signals": 0, "dropped_incidents": 0}
        self._update_peaks = {"grad_norm": 0.0, "update_ratio": 0.0}

    # -- configuration -----------------------------------------------------
    @property
    def active(self) -> bool:
        return self.policy != "off"

    def set_policy(self, policy: str) -> None:
        if policy not in HEALTH_POLICIES:
            raise ValueError(f"unknown health policy {policy!r}; "
                             f"expected one of {HEALTH_POLICIES}")
        self.policy = policy

    def reset(self) -> None:
        """Clear incidents, totals, and segment context (policy kept)."""
        self.incidents.clear()
        self.segment = None
        for key in self._totals:
            self._totals[key] = 0
        for key in self._update_peaks:
            self._update_peaks[key] = 0.0

    @contextlib.contextmanager
    def segment_scope(self, index: int):
        """Attribute incidents inside the block to stream segment ``index``."""
        saved = self.segment
        self.segment = int(index)
        try:
            yield self
        finally:
            self.segment = saved

    # -- checks ------------------------------------------------------------
    def check(self, op: str, value, *, iteration: int | None = None) -> bool:
        """Finite sentinel on an array, a scalar, or a sequence of arrays.

        Returns ``True`` to continue, ``False`` when the caller should
        drop the pending update (``skip-step`` policy); raises
        :class:`HealthError` under ``raise``.
        """
        if self.policy == "off":
            return True
        self._totals["checks"] += 1
        _telemetry.counter("health.checks")
        if isinstance(value, (float, int)):
            if math.isfinite(value):
                return True
            return self._incident(op, "nonfinite", {"checked": 1,
                                                    "value": float(value)},
                                  iteration)
        arrays = (value,) if isinstance(value, np.ndarray) else tuple(value)
        for array in arrays:
            probe = _finite_probe(np.asarray(array), self.max_sample)
            # Overflow to inf on legal float32 data is expected here (the
            # detailed scan below clears it) — keep it warning-silent.
            with np.errstate(over="ignore"):
                total = float(probe.sum())
            if math.isfinite(total):
                continue
            stats = _array_stats(probe)
            if stats["nan"] or stats["inf"]:
                return self._incident(op, "nonfinite", stats, iteration)
            # The probe sum overflowed on genuinely finite data — huge but
            # legal values are not an incident.
        return True

    def update_due(self, step: int) -> bool:
        """Whether an optimizer's ``step``-th update should be checked."""
        return self.active and step % self.update_every == 0

    def note_update(self, op: str, datas: Sequence[np.ndarray],
                    grads: Sequence[np.ndarray | None],
                    updates: Sequence[np.ndarray], scale: float, *,
                    iteration: int | None = None) -> bool:
        """Per-layer gradient-norm / update-to-weight gauges + sentinel.

        ``updates`` are the raw update directions (velocity or gradient);
        the applied delta is ``scale * update``.  The layer norms double
        as the finite sentinel — a NaN or Inf anywhere in a layer's
        parameters, gradient, or update surfaces as a non-finite norm, so
        one reduction per array buys both the gauge and the check.
        """
        if self.policy == "off":
            return True
        self._totals["checks"] += 1
        _telemetry.counter("health.checks")
        emit = _telemetry.enabled()
        ok = True
        for i, (w, g, u) in enumerate(zip(datas, grads, updates)):
            if g is None:
                continue
            w_norm = float(np.linalg.norm(w.reshape(-1)))
            g_norm = float(np.linalg.norm(g.reshape(-1)))
            u_norm = abs(scale) * float(np.linalg.norm(u.reshape(-1)))
            ratio = u_norm / w_norm if w_norm > 0.0 else float("inf")
            if emit:
                _telemetry.gauge(f"health.layer{i:02d}.grad_norm", g_norm)
                _telemetry.gauge(f"health.layer{i:02d}.update_ratio", ratio)
            if math.isfinite(g_norm):
                self._update_peaks["grad_norm"] = max(
                    self._update_peaks["grad_norm"], g_norm)
            if math.isfinite(ratio):
                self._update_peaks["update_ratio"] = max(
                    self._update_peaks["update_ratio"], ratio)
            if not (math.isfinite(w_norm) and math.isfinite(g_norm)
                    and math.isfinite(u_norm)):
                ok = self._incident(
                    op, "nonfinite",
                    {"layer": i, "weight_norm": w_norm, "grad_norm": g_norm,
                     "update_norm": u_norm}, iteration) and ok
        return ok

    # -- incident plumbing -------------------------------------------------
    def _incident(self, op: str, kind: str, stats: dict[str, Any],
                  iteration: int | None) -> bool:
        incident = HealthIncident(op=op, kind=kind, segment=self.segment,
                                  iteration=iteration, action=self.policy,
                                  stats=stats)
        self._totals["incidents"] += 1
        self._totals[kind] += 1
        _telemetry.counter("health.incidents")
        _telemetry.counter(f"health.{kind}")
        if len(self.incidents) < self.max_incidents:
            self.incidents.append(incident)
        else:
            self._totals["dropped_incidents"] += 1
        _telemetry.event("health", **incident.as_event_fields())
        if self.policy == "raise":
            where = f"op={op}"
            if incident.segment is not None:
                where += f" segment={incident.segment}"
            if iteration is not None:
                where += f" iteration={iteration}"
            raise HealthError(
                f"numerical-health violation ({kind}) at {where}: {stats}",
                op=op, kind=kind, segment=incident.segment,
                iteration=iteration, stats=stats)
        if self.policy == "skip-step":
            self._totals["skip_signals"] += 1
            _telemetry.counter("health.skipped_steps")
            return False
        return True

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Flat float totals (``collect_runtime_counters`` gauge source)."""
        values = {key: float(val) for key, val in self._totals.items()}
        values["recorded_incidents"] = float(len(self.incidents))
        values["max_grad_norm"] = self._update_peaks["grad_norm"]
        values["max_update_ratio"] = self._update_peaks["update_ratio"]
        values["policy_active"] = float(self.active)
        return values


def _policy_from_env() -> str:
    policy = os.environ.get(POLICY_ENV, "record").strip().lower()
    return policy if policy in HEALTH_POLICIES else "record"


#: The process-wide monitor the instrumented hot paths consult.
_MONITOR = HealthMonitor(_policy_from_env())


def get_monitor() -> HealthMonitor:
    return _MONITOR


@contextlib.contextmanager
def scoped_policy(policy: str):
    """Temporarily switch the default monitor's policy (for tests)."""
    saved = _MONITOR.policy
    _MONITOR.set_policy(policy)
    try:
        yield _MONITOR
    finally:
        _MONITOR.set_policy(saved)


def health_stats() -> dict[str, float]:
    """Default-monitor totals (pulled as ``health.*`` runtime gauges)."""
    return _MONITOR.stats()
