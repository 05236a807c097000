"""Inter-run sweep executor: fan experiment grid points out to processes.

Independent experiment configurations (Table I/II grid points, Fig. 4
sweep points, ablation variants, repeated benchmark seeds) are
embarrassingly parallel: each one runs a complete on-device pipeline and
touches no shared mutable state.
:func:`run_sweep` executes such a grid on a pool of worker *processes* so
every grid point gets its own GIL and its own BLAS/kernel state.

Design points
-------------
* **Shared-memory arrays, pickled once.**  The big inputs (dataset splits,
  stream pools, model weights) are packed into a single
  :mod:`multiprocessing.shared_memory` block by :class:`SharedArrayPack`
  and attached once per worker in the pool initializer — tasks themselves
  carry only small config dicts.  Without this every task submission would
  re-pickle tens of MB of arrays through the task pipe.
* **Streaming, then ordered.**  :func:`iter_sweep` yields each grid point
  the moment it completes (with a heartbeat event when nothing lands for a
  while), so callers can render live progress; :func:`run_sweep` consumes
  the stream and restores task order at the end, so sweep *output* stays
  independent of scheduling.
* **Worker telemetry shards.**  When the parent runs with telemetry (or an
  explicit ``telemetry_dir``), each task executes under a fresh per-task
  registry writing a JSONL shard (see :mod:`repro.obs.export`); the parent
  merges the shards into ``workers.jsonl`` after the sweep, so ``jobs>1``
  runs no longer lose the counters and spans produced inside workers.
* **Crash surfacing.**  A grid point that raises inside a worker returns its
  formatted traceback; the parent raises :class:`SweepTaskError` carrying
  the offending config and the remote traceback instead of hanging or
  dying with an opaque ``BrokenProcessPool``.  Hard worker death (OOM kill,
  segfault) is mapped to the same error type.  Soft failures are raised
  only after the stream drains, so concurrently-running good points still
  finish and get journaled — a fast-failing config can no longer erase a
  slow good point's record just by completing first.
* **``jobs=1`` is exactly today's behaviour**: the grid runs inline in the
  parent process, in order, with no multiprocessing machinery at all.

The default start method is ``fork`` where available (cheap, inherits the
imported numpy stack); override with ``REPRO_MP_START=spawn|forkserver``.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from typing import (TYPE_CHECKING, Any, Callable, Iterator, Mapping,
                    Sequence)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (persist -> parallel)
    from ..persist import ResumeJournal

__all__ = [
    "SharedArrayPack",
    "SweepTaskError",
    "SweepOutcome",
    "iter_sweep",
    "run_sweep",
    "default_start_method",
]

#: Worker signature: ``worker(config, context, arrays) -> picklable result``.
SweepWorker = Callable[[dict, Any, Mapping[str, np.ndarray]], Any]


def default_start_method() -> str:
    """Multiprocessing start method for sweeps (``REPRO_MP_START`` override)."""
    import multiprocessing

    requested = os.environ.get("REPRO_MP_START", "").strip().lower()
    available = multiprocessing.get_all_start_methods()
    if requested:
        if requested not in available:
            raise ValueError(f"REPRO_MP_START={requested!r} not available; "
                             f"choose from {available}")
        return requested
    return "fork" if "fork" in available else "spawn"


# ----------------------------------------------------------------------
# Shared-memory array pack
# ----------------------------------------------------------------------
def _align(offset: int, alignment: int = 64) -> int:
    return (offset + alignment - 1) // alignment * alignment


#: Python >= 3.13 lets an attacher opt out of resource-tracker
#: registration directly; older versions need the patch below.
_SHM_SUPPORTS_TRACK = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__).parameters

# Guards the resource-tracker registration patch used by attach() on
# Python < 3.13.  The patch is global (module attribute), so concurrent
# attaches — threaded callers, nested packs — must install it exactly once
# and restore it only when the last attacher leaves; an unguarded
# save/patch/restore pair can interleave so that the saved "original" is
# another attacher's no-op, leaving registration permanently disabled.
_TRACKER_PATCH_LOCK = threading.Lock()
_TRACKER_PATCH_DEPTH = 0
_TRACKER_ORIGINAL_REGISTER: Callable | None = None


@contextlib.contextmanager
def _untracked_shm_attach():
    """Suppress resource-tracker registration, re-entrantly + thread-safely.

    Python <3.13 registers even attached (non-owning) segments with the
    resource tracker, which then tries to clean them up on worker exit:
    under spawn the worker's own tracker unlinks the live segment, under
    fork the shared tracker's bookkeeping is corrupted.  The parent owns
    the segment and its tracker entry, so attachers must not register.
    """
    global _TRACKER_PATCH_DEPTH, _TRACKER_ORIGINAL_REGISTER
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        _TRACKER_PATCH_DEPTH += 1
        if _TRACKER_PATCH_DEPTH == 1:
            _TRACKER_ORIGINAL_REGISTER = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
    try:
        yield
    finally:
        with _TRACKER_PATCH_LOCK:
            _TRACKER_PATCH_DEPTH -= 1
            if _TRACKER_PATCH_DEPTH == 0:
                resource_tracker.register = _TRACKER_ORIGINAL_REGISTER
                _TRACKER_ORIGINAL_REGISTER = None


class SharedArrayPack:
    """A name->ndarray mapping packed into one shared-memory block.

    The parent :meth:`creates <create>` the pack (one copy per array into the
    block), workers :meth:`attach` read-only views by name.  The block is
    reference-counted by the OS: the parent unlinks it after the sweep and
    the memory disappears when the last worker detaches.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 manifest: dict[str, tuple[str, tuple[int, ...], int]],
                 *, owner: bool) -> None:
        self._shm = shm
        self._manifest = manifest
        self._owner = owner

    # -- parent side -------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArrayPack":
        manifest: dict[str, tuple[str, tuple[int, ...], int]] = {}
        offset = 0
        contiguous = {name: np.ascontiguousarray(arr)
                      for name, arr in arrays.items()}
        for name, arr in contiguous.items():
            offset = _align(offset)
            manifest[name] = (arr.dtype.str, arr.shape, offset)
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, arr in contiguous.items():
            _, shape, off = manifest[name]
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                              offset=off)
            view[...] = arr
        from ..obs.memory import default_ledger
        default_ledger.record("shm.pack", shm.name, shm.size)
        return cls(shm, manifest, owner=True)

    def spec(self) -> dict:
        """Picklable attach info handed to worker initializers."""
        return {"shm_name": self._shm.name, "manifest": self._manifest}

    # -- worker side -------------------------------------------------------
    @classmethod
    def attach(cls, spec: dict) -> "SharedArrayPack":
        # Attach without resource-tracker registration (the parent owns the
        # segment and its tracker entry): natively where SharedMemory
        # supports ``track=False``, via the guarded registration patch
        # elsewhere — see :func:`_untracked_shm_attach`.
        if _SHM_SUPPORTS_TRACK:
            shm = shared_memory.SharedMemory(name=spec["shm_name"],
                                             track=False)
        else:
            with _untracked_shm_attach():
                shm = shared_memory.SharedMemory(name=spec["shm_name"])
        return cls(shm, spec["manifest"], owner=False)

    def arrays(self) -> dict[str, np.ndarray]:
        """Read-only ndarray views over the shared block."""
        out: dict[str, np.ndarray] = {}
        for name, (dtype, shape, off) in self._manifest.items():
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=self._shm.buf, offset=off)
            view.flags.writeable = False
            out[name] = view
        return out

    @property
    def nbytes(self) -> int:
        return self._shm.size

    # -- lifecycle ---------------------------------------------------------
    def close(self, *, unlink: bool | None = None) -> None:
        """Detach; the owning side also unlinks the block."""
        if unlink is None:
            unlink = self._owner
        if self._owner:
            from ..obs.memory import default_ledger
            default_ledger.drop("shm.pack", self._shm.name)
        try:
            self._shm.close()
        except BufferError:  # live views outstanding; OS cleanup still works
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Errors and outcomes
# ----------------------------------------------------------------------
class SweepTaskError(RuntimeError):
    """A grid point failed; carries its config and the worker traceback."""

    def __init__(self, config: dict, traceback_text: str) -> None:
        self.config = config
        self.traceback_text = traceback_text
        super().__init__(
            f"sweep task failed for config {config!r}\n"
            f"--- worker traceback ---\n{traceback_text}")


@dataclass
class SweepOutcome:
    """One grid point's result plus its execution metadata."""

    config: dict
    result: Any = None
    error: str | None = None
    worker_pid: int = 0
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# Worker-process globals (set by the pool initializer)
# ----------------------------------------------------------------------
_WORKER_PACK: SharedArrayPack | None = None
_WORKER_ARRAYS: dict[str, np.ndarray] = {}
_WORKER_CONTEXT: Any = None


def _worker_init(pack_spec: dict | None, context: Any) -> None:
    global _WORKER_PACK, _WORKER_ARRAYS, _WORKER_CONTEXT
    # Fork-started workers inherit an enabled telemetry sink writing to the
    # parent's trace file; concurrent appends from several processes would
    # interleave mid-line.  Workers stay silent — the parent emits the
    # per-task ``sweep_task`` events on their behalf.
    from .. import obs
    obs.disable()
    _WORKER_CONTEXT = context
    if pack_spec is not None:
        _WORKER_PACK = SharedArrayPack.attach(pack_spec)
        _WORKER_ARRAYS = _WORKER_PACK.arrays()
    else:
        _WORKER_PACK = None
        _WORKER_ARRAYS = {}


def _worker_run(worker: SweepWorker, index: int, config: dict,
                shard_spec: dict | None = None) -> dict:
    t0 = time.perf_counter()
    try:
        if shard_spec is not None:
            # Run the task under a fresh registry writing a per-task JSONL
            # shard; the parent merges shards after the sweep.  The pool's
            # disabled default registry is restored on exit either way.
            from ..obs.export import (config_digest, shard_path,
                                      worker_telemetry)
            path = shard_path(shard_spec["run_dir"], index,
                              config_digest(config))
            with worker_telemetry(path, task_index=index, config=config,
                                  labels=shard_spec.get("labels")):
                result = worker(config, _WORKER_CONTEXT, _WORKER_ARRAYS)
        else:
            result = worker(config, _WORKER_CONTEXT, _WORKER_ARRAYS)
        return {"index": index, "ok": True, "result": result,
                "pid": os.getpid(), "seconds": time.perf_counter() - t0}
    except BaseException:  # noqa: BLE001 - surfaced to the parent
        return {"index": index, "ok": False,
                "error": traceback.format_exc(),
                "pid": os.getpid(), "seconds": time.perf_counter() - t0}


# ----------------------------------------------------------------------
# The sweep runner
# ----------------------------------------------------------------------
def _emit_outcome(outcome: SweepOutcome, index: int) -> None:
    from .. import obs

    if not obs.enabled():
        return
    obs.counter("sweep.tasks_completed")
    obs.observe("sweep.task_seconds", outcome.seconds)
    obs.event("sweep_task", index=index, config=outcome.config,
              worker_pid=outcome.worker_pid, dur_s=outcome.seconds,
              ok=outcome.ok)


def _discover_run_dir():
    """The enabled default registry's JSONL run directory, if any.

    Lets the sweep place worker shards next to the parent's ``trace.jsonl``
    without threading a path through every driver: ``--telemetry DIR``
    enables a :class:`~repro.obs.sinks.JsonlSink` at ``DIR/trace.jsonl``,
    so ``DIR`` is the run dir.
    """
    from .. import obs

    registry = obs.get_telemetry()
    sink = registry.sink if registry.enabled else None
    path = getattr(sink, "path", None)
    return path.parent if path is not None else None


def _shard_labels(context: Any) -> dict | None:
    """Identity tags every shard carries (prepared-experiment hash)."""
    if isinstance(context, Mapping) and "content_hash" in context:
        return {"content_hash": context["content_hash"]}
    return None


def _iter_inline(worker: SweepWorker, configs: Sequence[dict],
                 indices: Sequence[int], context: Any,
                 arrays: Mapping[str, np.ndarray] | None
                 ) -> Iterator[tuple[int, SweepOutcome]]:
    arrays = dict(arrays or {})
    for index in indices:
        config = configs[index]
        t0 = time.perf_counter()
        try:
            result = worker(dict(config), context, arrays)
            outcome = SweepOutcome(config=dict(config), result=result,
                                   worker_pid=os.getpid(),
                                   seconds=time.perf_counter() - t0)
        except Exception:
            outcome = SweepOutcome(config=dict(config),
                                   error=traceback.format_exc(),
                                   worker_pid=os.getpid(),
                                   seconds=time.perf_counter() - t0)
        yield index, outcome


def _iter_pool(worker: SweepWorker, configs: Sequence[dict],
               indices: Sequence[int], context: Any,
               arrays: Mapping[str, np.ndarray] | None,
               jobs: int, start_method: str | None,
               telemetry_dir: str | os.PathLike | None,
               heartbeat_s: float) -> Iterator[tuple[int, SweepOutcome]]:
    from .. import obs

    t_start = time.perf_counter()
    done_outcomes: list[SweepOutcome] = []
    run_dir = telemetry_dir if telemetry_dir is not None \
        else _discover_run_dir()
    shard_spec: dict | None = None
    if run_dir is not None:
        shard_spec = {"run_dir": str(run_dir)}
        labels = _shard_labels(context)
        if labels:
            shard_spec["labels"] = labels
    # Everything that can fail between pack creation and pool startup
    # (start-method resolution, telemetry, executor spin-up) runs under the
    # same try/finally as the sweep itself, so an exception anywhere on
    # this path still closes + unlinks the shared-memory segment — no
    # leaked /dev/shm blocks, whatever raises.  The finally also fires on
    # ``GeneratorExit`` when a consumer abandons the stream mid-sweep.
    pack: SharedArrayPack | None = None
    try:
        pack = SharedArrayPack.create(arrays) if arrays else None
        if obs.enabled():
            obs.gauge("sweep.jobs", jobs)
            if pack is not None:
                obs.gauge("sweep.shared_bytes", pack.nbytes)
        ctx = get_context(start_method or default_start_method())
        # Drain the parent sink's userspace buffer before forking: workers
        # inherit the buffered file object and close it on init (disable),
        # which would flush the parent's pending lines a second time per
        # worker — duplicated records in trace.jsonl.
        parent_sink = obs.get_telemetry().sink
        if parent_sink is not None and hasattr(parent_sink, "flush"):
            parent_sink.flush()
        with ProcessPoolExecutor(
                max_workers=jobs, mp_context=ctx,
                initializer=_worker_init,
                initargs=(pack.spec() if pack else None, context)) as pool:
            index_of = {
                pool.submit(_worker_run, worker, i, configs[i],
                            shard_spec): i
                for i in indices}
            waiting = set(index_of)
            while waiting:
                ready, waiting = wait(waiting, timeout=heartbeat_s,
                                      return_when=FIRST_COMPLETED)
                if not ready:
                    # Nothing landed for a whole heartbeat window: a hung
                    # worker shows up as a stalled span in the trace
                    # instead of silent dead air.
                    if obs.enabled():
                        obs.event("sweep_heartbeat",
                                  pending=len(waiting),
                                  completed=len(done_outcomes),
                                  elapsed_s=time.perf_counter() - t_start)
                    continue
                # ``wait`` hands back an unordered set; sort by submission
                # index so same-batch completions stream deterministically.
                for fut in sorted(ready, key=index_of.__getitem__):
                    i = index_of[fut]
                    try:
                        payload = fut.result()
                    except BrokenProcessPool:
                        raise SweepTaskError(
                            configs[i],
                            "worker process died before returning a result "
                            "(killed or crashed hard); re-run with jobs=1 "
                            "to reproduce in-process") from None
                    outcome = SweepOutcome(
                        config=configs[i],
                        result=payload.get("result"),
                        error=None if payload["ok"] else payload["error"],
                        worker_pid=payload["pid"],
                        seconds=payload["seconds"])
                    done_outcomes.append(outcome)
                    yield i, outcome
        wall = time.perf_counter() - t_start
        if obs.enabled() and wall > 0:
            busy = sum(o.seconds for o in done_outcomes)
            obs.gauge("sweep.utilization", busy / (jobs * wall))
            by_pid: dict[int, float] = {}
            for o in done_outcomes:
                by_pid[o.worker_pid] = (by_pid.get(o.worker_pid, 0.0)
                                        + o.seconds)
            for pid, seconds in sorted(by_pid.items()):
                obs.event("sweep_worker", worker_pid=pid, busy_s=seconds,
                          wall_s=wall)
    finally:
        if pack is not None:
            pack.close()
        if shard_spec is not None:
            from ..obs.export import merge_worker_shards
            try:
                merge_worker_shards(shard_spec["run_dir"])
            except OSError:  # merge is best-effort; shards stay on disk
                pass


def iter_sweep(worker: SweepWorker, configs: Sequence[dict], *,
               jobs: int = 1,
               arrays: Mapping[str, np.ndarray] | None = None,
               context: Any = None,
               start_method: str | None = None,
               indices: Sequence[int] | None = None,
               telemetry_dir: str | os.PathLike | None = None,
               heartbeat_s: float = 30.0
               ) -> Iterator[tuple[int, SweepOutcome]]:
    """Stream ``(index, outcome)`` pairs as grid points complete.

    The as-completed core of :func:`run_sweep`: with ``jobs > 1`` pairs
    arrive in completion order (ties broken by submission index, so the
    stream is deterministic for a fixed completion schedule); the inline
    path yields in config order.  ``indices`` restricts execution to a
    subset of ``configs`` (resume support) without renumbering.  Closing
    the generator early releases the shared-memory pack and merges any
    worker telemetry shards written so far.
    """
    configs = [dict(c) for c in configs]
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    todo = list(range(len(configs))) if indices is None else list(indices)
    if not todo:
        return
    if jobs == 1 or len(todo) == 1:
        yield from _iter_inline(worker, configs, todo, context, arrays)
    else:
        yield from _iter_pool(worker, configs, todo, context, arrays,
                              min(jobs, len(todo)), start_method,
                              telemetry_dir, heartbeat_s)


def run_sweep(worker: SweepWorker, configs: Sequence[dict], *,
              jobs: int = 1,
              arrays: Mapping[str, np.ndarray] | None = None,
              context: Any = None,
              start_method: str | None = None,
              raise_on_error: bool = True,
              journal: "ResumeJournal | None" = None,
              resume: bool = False,
              on_result: Callable[[int, SweepOutcome], None] | None = None,
              telemetry_dir: str | os.PathLike | None = None,
              heartbeat_s: float = 30.0) -> list[SweepOutcome]:
    """Run ``worker`` over every config, optionally across processes.

    Parameters
    ----------
    worker:
        Picklable module-level callable
        ``worker(config, context, arrays) -> result``.
    configs:
        Grid points; each must be a picklable dict.  Results are returned in
        this order.
    jobs:
        Worker processes.  ``1`` (default) runs the grid inline in the
        parent — exactly the serial behaviour, no subprocesses.
    arrays:
        Large ndarrays shipped to workers once via shared memory (read-only
        views inside the workers).
    context:
        Small picklable object passed to every worker once (pool
        initializer), e.g. dataset/model metadata.
    start_method:
        Multiprocessing start method override (default:
        :func:`default_start_method`).
    raise_on_error:
        When True (default) a failing grid point raises
        :class:`SweepTaskError` carrying the lowest-index failure — but
        only *after* the completion stream drains, so points already
        running (or queued) still finish and are journaled.  Raising
        immediately would let a fast-failing config abandon a slow good
        point before its journal line lands (on a one-core container the
        bad point often completes first).  Hard worker death
        (``BrokenProcessPool``) still aborts immediately: the pool is
        broken and no further results can land.  When False, failures are
        returned as outcomes with ``.error`` set.
    journal:
        Optional :class:`~repro.persist.ResumeJournal`.  Every successful
        grid point is recorded (result persisted first, journal line
        appended + fsynced second) by the parent process, in config order,
        so a crashed sweep leaves a complete record of its finished points.
    resume:
        With a journal: configs already journaled are *skipped* and their
        persisted results returned as outcomes with
        ``extra={"resumed": True}``; only missing/failed points execute.
        Journal entries whose result file is missing or corrupt re-run.
    on_result:
        Optional ``on_result(index, outcome)`` hook invoked the moment each
        grid point lands (completion order under ``jobs > 1``), including
        once per journal-resumed point before execution starts.  This is
        how live progress reporting (:class:`repro.obs.SweepProgress`)
        attaches without touching the returned, config-ordered list.
    telemetry_dir:
        Run directory for per-task worker telemetry shards (``jobs > 1``);
        defaults to the enabled default registry's trace directory, if any.
    heartbeat_s:
        With ``jobs > 1``: emit a ``sweep_heartbeat`` telemetry event when
        no grid point completes for this many seconds.
    """
    from .. import obs

    configs = [dict(c) for c in configs]
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")
    if not configs:
        return []

    outcomes: list[SweepOutcome | None] = [None] * len(configs)
    keys: list[str] = ([journal.key(config) for config in configs]
                       if journal is not None else [])
    pending = list(range(len(configs)))
    if journal is not None and resume:
        pending = []
        for i, config in enumerate(configs):
            entry = journal.lookup(keys[i])
            ok, result = (journal.load_result(entry) if entry is not None
                          else (False, None))
            if entry is not None and ok:
                outcomes[i] = SweepOutcome(
                    config=config, result=result,
                    worker_pid=int(entry.get("worker_pid", 0)),
                    seconds=float(entry.get("seconds", 0.0)),
                    extra={"resumed": True})
                if obs.enabled():
                    obs.counter("sweep.tasks_resumed")
                if on_result is not None:
                    on_result(i, outcomes[i])
            else:
                pending.append(i)

    failed: list[int] = []

    def complete(index: int, outcome: SweepOutcome) -> None:
        outcomes[index] = outcome
        _emit_outcome(outcome, index)
        if journal is not None and outcome.ok:
            journal.record(keys[index], outcome.config, outcome.result,
                           seconds=outcome.seconds,
                           worker_pid=outcome.worker_pid)
        if on_result is not None:
            on_result(index, outcome)
        if not outcome.ok:
            # Remember the failure but keep draining the stream: in-flight
            # good points must land (and be journaled) before we raise.
            failed.append(index)

    if pending:
        stream = iter_sweep(worker, configs, jobs=jobs, arrays=arrays,
                            context=context, start_method=start_method,
                            indices=pending, telemetry_dir=telemetry_dir,
                            heartbeat_s=heartbeat_s)
        try:
            for index, outcome in stream:
                complete(index, outcome)
        finally:
            # Explicit close so abandoning the stream (BrokenProcessPool,
            # or an ``on_result`` hook raising) releases the shm pack and
            # merges telemetry shards deterministically, not at GC time.
            stream.close()
    if failed and raise_on_error:
        first = outcomes[min(failed)]
        raise SweepTaskError(first.config, first.error) from None
    return [o for o in outcomes if o is not None]
