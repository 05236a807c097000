"""Byte-accurate memory ledger: where do the process's bytes live?

The paper's whole claim is *memory* efficiency — a condensed buffer that
fits an on-device budget — so the observability layer needs a byte axis,
not just a time axis.  The ledger keeps **named accounts** covering every
long-lived allocation class in the repo:

=====================  ====================================================
account                what it holds
=====================  ====================================================
``buffer.synthetic``   :class:`~repro.buffer.buffer.SyntheticBuffer` payloads
``buffer.synthetic.factorized``  factorized (reduced-resolution) synthetic
                       payloads (:class:`~repro.buffer.factorized.
                       FactorizedSyntheticBuffer`)
``buffer.raw``         :class:`~repro.buffer.buffer.RawBuffer` payloads
``model.params``       deployed/scratch model parameter arrays
``selection.pool``     herding's per-class candidate pools (raw images),
                       their cached encoder feature rows and weight snapshot
``disk.checkpoints``   checkpoint files written this process (bytes on disk)
=====================  ====================================================

Every account is made of **recorded entries** (:meth:`MemoryLedger.record`
/ :meth:`drop`) for objects with an owner and a lifetime — buffers,
models, pools.  :func:`track_object` couples an entry to an object's
lifetime via ``weakref.finalize`` so a garbage-collected buffer can never
leak its ledger bytes.

Kernel scratch (im2col columns and their shifted input copies, row-padded
gradients, col2im canvases) is not an account: each op allocates it fresh
and it is freed with the graph that uses it (conv columns as soon as
backward has used them).  The micro-batch split rule
(:func:`repro.utils.batching.micro_batches`) bounds how large it gets, so
it shows up only in the RSS and ``tracemalloc`` numbers, never as a
resident pool.

On top of the accounts: a process-wide **high-water gauge** (updated on
every record), **RSS sampling** (``/proc/self/statm`` with a
``getrusage`` fallback, throttled for periodic emission), and an optional
``tracemalloc``-backed **deep audit** that cross-checks ledger deltas
against real interpreter allocations (numpy registers its payloads with
tracemalloc, so tracked-account deltas must agree within tolerance).

Everything here is stdlib-only and import-light: hot modules (buffers,
selection) import this module directly without dragging in the rest of the
telemetry layer.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "MemoryLedger",
    "DeepAuditReport",
    "default_ledger",
    "track_object",
    "DISK_ACCOUNT_PREFIX",
]

#: Accounts under this prefix measure bytes *on disk*, not resident memory;
#: they are excluded from RAM totals, span deltas, and the deep audit.
DISK_ACCOUNT_PREFIX = "disk."

_KEY_COUNTER = itertools.count()


@dataclass
class DeepAuditReport:
    """Outcome of one :meth:`MemoryLedger.deep_audit` region."""

    ledger_delta: int = 0
    traced_delta: int = 0
    tolerance: float = 0.10
    account_deltas: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Ledger and tracemalloc agree within tolerance of the larger."""
        scale = max(abs(self.ledger_delta), abs(self.traced_delta), 1)
        return abs(self.ledger_delta - self.traced_delta) <= (
            self.tolerance * scale)


class MemoryLedger:
    """Named byte accounts + high-water gauge + RSS sampling + deep audit."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # account -> key -> nbytes (recorded entries).
        self._accounts: dict[str, dict[str, int]] = {}
        # account -> recorded total (kept incrementally for O(1) reads).
        self._recorded: dict[str, int] = {}
        # Recorded RAM bytes (disk.* excluded); single int so span deltas
        # are one attribute read on the hot path.
        self._ram_total = 0
        self.high_water_bytes = 0
        self.tracking = True
        self._last_rss_monotonic = 0.0

    # -- recorded entries --------------------------------------------------
    def record(self, account: str, key: str, nbytes: int) -> None:
        """Set (or update) one entry's byte count under ``account``."""
        if not self.tracking:
            return
        nbytes = int(nbytes)
        with self._lock:
            entries = self._accounts.setdefault(account, {})
            delta = nbytes - entries.get(key, 0)
            entries[key] = nbytes
            self._recorded[account] = self._recorded.get(account, 0) + delta
            if not account.startswith(DISK_ACCOUNT_PREFIX):
                self._ram_total += delta
                if self._ram_total > self.high_water_bytes:
                    self.high_water_bytes = self._ram_total

    def drop(self, account: str, key: str) -> None:
        """Remove one entry; unknown keys are ignored (finalizer-safe)."""
        with self._lock:
            entries = self._accounts.get(account)
            if not entries or key not in entries:
                return
            nbytes = entries.pop(key)
            self._recorded[account] = self._recorded.get(account, 0) - nbytes
            if not account.startswith(DISK_ACCOUNT_PREFIX):
                self._ram_total -= nbytes

    # -- totals ------------------------------------------------------------
    @property
    def ram_recorded_bytes(self) -> int:
        """Recorded RAM bytes — hot-path safe."""
        return self._ram_total

    def totals(self) -> dict[str, int]:
        """Bytes per account (accounts at zero omitted)."""
        with self._lock:
            return {account: total
                    for account, total in self._recorded.items() if total}

    def tracked_ram_bytes(self) -> int:
        """Total tracked resident bytes (disk accounts excluded)."""
        return sum(v for a, v in self.totals().items()
                   if not a.startswith(DISK_ACCOUNT_PREFIX))

    def reset_high_water(self) -> int:
        """Rebase the high-water gauge to the *current* recorded total.

        The gauge is process-wide, so in a serial sweep a later, smaller
        configuration would otherwise inherit the peak of an earlier, larger
        one.  Callers that want per-run peaks (``run_method``) call this at
        run start; the returned value is the new baseline.
        """
        with self._lock:
            self.high_water_bytes = self._ram_total
            return self.high_water_bytes

    def entry_counts(self) -> dict[str, int]:
        """Recorded entries per account."""
        with self._lock:
            return {account: len(entries)
                    for account, entries in self._accounts.items() if entries}

    # -- process-level gauges ------------------------------------------------
    @staticmethod
    def rss_bytes() -> int:
        """Current resident set size (0 when the platform hides it)."""
        try:
            with open("/proc/self/statm", encoding="ascii") as fh:
                pages = int(fh.read().split()[1])
            return pages * os.sysconf("SC_PAGESIZE")
        except (OSError, ValueError, IndexError):
            pass
        try:
            import resource
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:  # pragma: no cover - exotic platform
            return 0

    @staticmethod
    def peak_rss_bytes() -> int:
        """Lifetime peak RSS of the process (ru_maxrss; 0 if unavailable)."""
        try:
            import resource
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:  # pragma: no cover - exotic platform
            return 0

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready dict: accounts, totals, high water, RSS."""
        accounts = self.totals()
        ram = sum(v for a, v in accounts.items()
                  if not a.startswith(DISK_ACCOUNT_PREFIX))
        return {
            "accounts": accounts,
            "tracked_bytes": ram,
            "high_water_bytes": self.high_water_bytes,
            "rss_bytes": self.rss_bytes(),
            "peak_rss_bytes": self.peak_rss_bytes(),
        }

    def maybe_sample_rss(self, *, min_interval_s: float = 0.5) -> bool:
        """Emit a throttled ``rss`` telemetry event; returns whether it fired.

        Call sites can invoke this every segment/iteration — at most one
        event per ``min_interval_s`` actually reads ``/proc`` and reaches
        the sink, keeping periodic RSS sampling cheap on fast loops.
        """
        now = time.monotonic()
        if now - self._last_rss_monotonic < min_interval_s:
            return False
        self._last_rss_monotonic = now
        from . import telemetry  # local import: telemetry imports this module
        registry = telemetry.get_telemetry()
        if not registry.enabled:
            return False
        registry.event("rss", rss_bytes=self.rss_bytes(),
                       tracked_bytes=self.tracked_ram_bytes(),
                       high_water_bytes=self.high_water_bytes)
        return True

    # -- deep audit ----------------------------------------------------------
    @contextlib.contextmanager
    def deep_audit(self, *, tolerance: float = 0.10):
        """Cross-check ledger deltas against tracemalloc over a region.

        numpy registers array payloads with tracemalloc, so over a region
        whose allocations are dominated by tracked objects (buffers,
        models) the ledger's RAM delta and the interpreter's traced delta
        must agree within ``tolerance``.  Starts tracing if needed and
        restores the previous tracing state on exit.
        """
        import tracemalloc

        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        before_accounts = self.totals()
        traced_before, _ = tracemalloc.get_traced_memory()
        report = DeepAuditReport(tolerance=tolerance)
        try:
            yield report
        finally:
            traced_after, _ = tracemalloc.get_traced_memory()
            after_accounts = self.totals()
            if started_here:
                tracemalloc.stop()
            report.traced_delta = traced_after - traced_before
            deltas = {}
            for account in set(before_accounts) | set(after_accounts):
                delta = (after_accounts.get(account, 0)
                         - before_accounts.get(account, 0))
                if delta:
                    deltas[account] = delta
            report.account_deltas = deltas
            report.ledger_delta = sum(
                v for a, v in deltas.items()
                if not a.startswith(DISK_ACCOUNT_PREFIX))


#: Process-wide ledger the instrumented allocation sites record into.
default_ledger = MemoryLedger()


def track_object(account: str, obj: Any, nbytes: int,
                 ledger: MemoryLedger | None = None) -> str:
    """Record ``nbytes`` under ``account`` for ``obj``'s lifetime.

    The entry is dropped automatically when ``obj`` is garbage collected
    (``weakref.finalize``), so tracked allocations can never outlive their
    owners in the ledger.  Returns the entry key.
    """
    ledger = ledger if ledger is not None else default_ledger
    key = f"obj-{next(_KEY_COUNTER)}"
    ledger.record(account, key, nbytes)
    weakref.finalize(obj, ledger.drop, account, key)
    return key
