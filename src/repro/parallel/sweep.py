"""Inter-run sweep executor: fan experiment grid points out to processes.

Independent experiment configurations (Table I/II grid points, Fig. 4
sweep points, ablation variants, repeated benchmark seeds) are
embarrassingly parallel: each one runs a complete on-device pipeline and
touches no shared mutable state.
:func:`run_sweep` executes such a grid on a pool of worker *processes* so
every grid point gets its own GIL and its own BLAS/kernel state.

Design points
-------------
* **The context travels once per worker.**  The shared input of a grid
  (for the experiment runners, the prepared experiment itself) goes to
  every worker through the pool initializer, and tasks carry only small
  config dicts.  Under ``fork`` the workers inherit it copy-on-write;
  under ``spawn`` it is pickled once to a temporary file that each worker
  loads, never once per task.
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
* **``jobs=1`` runs inline**: the grid runs in the parent process, in
  order, with no multiprocessing machinery at all.

The start method is ``fork`` where the platform has it (cheap, inherits
the imported numpy stack and the context), else ``spawn``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (persist -> parallel)
    from ..persist import ResumeJournal

__all__ = [
    "SweepTaskError",
    "SweepOutcome",
    "iter_sweep",
    "run_sweep",
    "default_start_method",
]

#: Worker signature: ``worker(config, context) -> picklable result``.
SweepWorker = Callable[[dict, Any], Any]


def default_start_method() -> str:
    """``fork`` where the platform has it, else ``spawn``."""
    import multiprocessing

    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


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
_WORKER_CONTEXT: Any = None


def _worker_init(context: Any) -> None:
    global _WORKER_CONTEXT
    # Fork-started workers inherit an enabled telemetry sink writing to the
    # parent's trace file; concurrent appends from several processes would
    # interleave mid-line.  Workers stay silent — the parent emits the
    # per-task ``sweep_task`` events on their behalf.
    from .. import obs
    obs.disable()
    _WORKER_CONTEXT = context


def _worker_init_from_file(path: str) -> None:
    with open(path, "rb") as fh:
        _worker_init(pickle.load(fh))


def _worker_run(worker: SweepWorker, index: int, config: dict,
                run_dir: str | os.PathLike | None = None) -> dict:
    t0 = time.perf_counter()
    try:
        if run_dir is not None:
            # Run the task under a fresh registry writing a per-task JSONL
            # shard; the parent merges shards after the sweep.  The pool's
            # disabled default registry is restored on exit either way.
            from ..obs.export import (config_digest, shard_path,
                                      worker_telemetry)
            path = shard_path(run_dir, index, config_digest(config))
            with worker_telemetry(path, task_index=index, config=config):
                result = worker(config, _WORKER_CONTEXT)
        else:
            result = worker(config, _WORKER_CONTEXT)
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


def _iter_inline(worker: SweepWorker, configs: Sequence[dict],
                 indices: Sequence[int], context: Any
                 ) -> Iterator[tuple[int, SweepOutcome]]:
    for index in indices:
        config = configs[index]
        t0 = time.perf_counter()
        try:
            result = worker(dict(config), context)
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
               indices: Sequence[int], context: Any, jobs: int,
               telemetry_dir: str | os.PathLike | None,
               heartbeat_s: float) -> Iterator[tuple[int, SweepOutcome]]:
    from .. import obs

    t_start = time.perf_counter()
    done_outcomes: list[SweepOutcome] = []
    run_dir = telemetry_dir if telemetry_dir is not None \
        else _discover_run_dir()
    context_dir = None
    # The finally merges the worker shards written so far, also on
    # ``GeneratorExit`` when a consumer abandons the stream mid-sweep.
    try:
        if obs.enabled():
            obs.gauge("sweep.jobs", jobs)
        start_method = default_start_method()
        ctx = get_context(start_method)
        initializer, initargs = _worker_init, (context,)
        if start_method == "spawn":
            # The parent writes a spawn worker's initializer arguments down
            # a pipe before it closes its own read end: a context larger
            # than the pipe buffer would block it for good if the worker
            # died while bootstrapping.  Workers load the context from a
            # file instead, so the pool reports the death.
            context_dir = tempfile.mkdtemp(prefix="repro-sweep-")
            path = os.path.join(context_dir, "context.pkl")
            with open(path, "wb") as fh:
                pickle.dump(context, fh, protocol=pickle.HIGHEST_PROTOCOL)
            initializer, initargs = _worker_init_from_file, (path,)
        # Drain the parent sink's userspace buffer before forking: workers
        # inherit the buffered file object and close it on init (disable),
        # which would flush the parent's pending lines a second time per
        # worker — duplicated records in trace.jsonl.
        parent_sink = obs.get_telemetry().sink
        if parent_sink is not None and hasattr(parent_sink, "flush"):
            parent_sink.flush()
        with ProcessPoolExecutor(
                max_workers=jobs, mp_context=ctx,
                initializer=initializer, initargs=initargs) as pool:
            index_of = {
                pool.submit(_worker_run, worker, i, configs[i], run_dir): i
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
        if context_dir is not None:
            shutil.rmtree(context_dir, ignore_errors=True)
        if run_dir is not None:
            from ..obs.export import merge_worker_shards
            try:
                merge_worker_shards(run_dir)
            except OSError:  # merge is best-effort; shards stay on disk
                pass


def iter_sweep(worker: SweepWorker, configs: Sequence[dict], *,
               jobs: int = 1,
               context: Any = None,
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
    the generator early merges the worker telemetry shards written so far.
    """
    configs = [dict(c) for c in configs]
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    todo = list(range(len(configs))) if indices is None else list(indices)
    if not todo:
        return
    if jobs == 1 or len(todo) == 1:
        yield from _iter_inline(worker, configs, todo, context)
    else:
        yield from _iter_pool(worker, configs, todo, context,
                              min(jobs, len(todo)), telemetry_dir,
                              heartbeat_s)


def run_sweep(worker: SweepWorker, configs: Sequence[dict], *,
              jobs: int = 1,
              context: Any = None,
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
        ``worker(config, context) -> result``.
    configs:
        Grid points; each must be a picklable dict.  Results are returned in
        this order.
    jobs:
        Worker processes.  ``1`` (default) runs the grid inline in the
        parent — exactly the serial behaviour, no subprocesses.
    context:
        Object every grid point shares, e.g. the prepared experiment.
        Inline it is passed as is; with ``jobs > 1`` each worker gets it
        once through the pool initializer (inherited under ``fork``,
        loaded from a file pickled once under ``spawn``), so it must be
        picklable there.
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
        stream = iter_sweep(worker, configs, jobs=jobs, context=context,
                            indices=pending, telemetry_dir=telemetry_dir,
                            heartbeat_s=heartbeat_s)
        try:
            for index, outcome in stream:
                complete(index, outcome)
        finally:
            # Explicit close so abandoning the stream (BrokenProcessPool,
            # or an ``on_result`` hook raising) shuts the pool down and
            # merges telemetry shards deterministically, not at GC time.
            stream.close()
    if failed and raise_on_error:
        first = outcomes[min(failed)]
        raise SweepTaskError(first.config, first.error) from None
    return [o for o in outcomes if o is not None]
