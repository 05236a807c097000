"""Run experiment grids through the Layer-2 sweep executor.

Every table/figure runner except Fig. 2 reduces to "run
:func:`~repro.experiments.common.run_method` once per (config, seed) on a
shared :class:`~repro.experiments.common.PreparedExperiment`".
:func:`run_grid` is that whole path: it prepares the experiment, crosses
the runner's configs with the seeds, arms the progress reporter and runs
the points through :func:`run_method_grid`, returning one list of per-seed
results per config.  A runner only builds its configs and reads its
results.

:func:`run_method_grid` is the loop run through
:func:`repro.parallel.run_sweep`, with the prepared experiment as the
sweep's context: with ``jobs=1`` (the default) the points run in order
in-process; with ``jobs>1`` every worker process gets the prepared
experiment once (inherited under ``fork``, pickled once under ``spawn``)
and the grid points run concurrently, results returned in grid order.

Workers hold the same array bytes and model parameters as the parent, and
``run_method`` copies the model before training, so a grid point produces
bit-identical results whichever process runs it; only wall-clock changes
with ``jobs``.
"""

from __future__ import annotations

import os
import pathlib
from typing import Sequence

from ..parallel import run_sweep
from ..persist import ResumeJournal, method_result_store, pack_prepared
from .common import (MethodResult, PreparedExperiment, prepare_experiment,
                     run_method)

__all__ = ["run_grid", "run_method_grid", "grid_journal",
           "prepared_cache_dir"]


def prepared_cache_dir(checkpoint_dir: str | os.PathLike | None
                       ) -> pathlib.Path | None:
    """Where a checkpoint dir keeps its prepared-experiment cache."""
    if checkpoint_dir is None:
        return None
    return pathlib.Path(checkpoint_dir) / "prepared"


def _grid_worker(config: dict, prepared: PreparedExperiment) -> MethodResult:
    return run_method(prepared, **config)


def grid_journal(checkpoint_dir: str | os.PathLike,
                 prepared: PreparedExperiment) -> ResumeJournal:
    """The resume journal of ``checkpoint_dir``, scoped to ``prepared``.

    Layout: ``journal.jsonl`` at the top of the directory, one persisted
    :class:`MethodResult` checkpoint per completed point under
    ``results/``.  The scope ties every entry to the byte-exact prepared
    state (dataset, profile, content hash of the packed arrays), so a
    journal recorded against different pretrained weights never satisfies
    a resume.
    """
    _, context = pack_prepared(prepared)
    checkpoint_dir = pathlib.Path(checkpoint_dir)
    scope = {"dataset": context["dataset_name"],
             "profile": context["profile_name"],
             "prepared": context["content_hash"]}
    save_result, load_result = method_result_store(checkpoint_dir / "results")
    return ResumeJournal(checkpoint_dir / "journal.jsonl", scope=scope,
                         save_result=save_result, load_result=load_result)


def run_method_grid(prepared: PreparedExperiment, configs, *,
                    jobs: int = 1,
                    checkpoint_dir: str | os.PathLike | None = None,
                    resume: bool = False,
                    progress=None) -> list[MethodResult]:
    """Run ``run_method(prepared, **config)`` per config, in config order.

    ``jobs=1`` runs the points in order in-process.  ``jobs>1`` fans the
    grid out to worker processes.  Either way a failing grid point raises
    :class:`~repro.parallel.SweepTaskError` carrying its config and the
    traceback.

    With ``checkpoint_dir`` set, every completed grid point is persisted
    and journaled there (see :func:`grid_journal`); ``resume=True``
    additionally skips configs the journal already records, loading their
    results from disk — results are deterministic in (prepared, config),
    so a resumed grid is bit-identical to an uninterrupted one.

    ``progress`` is an optional ``progress(index, outcome)`` callable (a
    :class:`repro.obs.SweepProgress`, typically) invoked per completed
    grid point in completion order.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    journal = (grid_journal(checkpoint_dir, prepared)
               if checkpoint_dir is not None else None)
    outcomes = run_sweep(_grid_worker, configs, jobs=jobs, context=prepared,
                         journal=journal, resume=resume, on_result=progress)
    return [o.result for o in outcomes]


def run_grid(dataset: str, profile: str, configs: Sequence[dict], *,
             label: str, seeds: Sequence[int] = (0,), jobs: int = 1,
             checkpoint_dir: str | os.PathLike | None = None,
             resume: bool = False,
             progress=None) -> list[list[MethodResult]]:
    """Run every config at every seed on ``dataset``'s prepared experiment.

    Returns, per config and in config order, the list of its results in
    ``seeds`` order.  The experiment is prepared once (with seed 0, cached
    under ``checkpoint_dir/prepared``); the seeds vary each stream, so the
    grid's points are ``dict(config, seed=s)`` with the seed innermost.

    ``jobs``, ``checkpoint_dir``, ``resume`` and ``progress`` are
    :func:`run_method_grid`'s.  A ``progress`` reporter with a ``begin``
    method (:class:`repro.obs.SweepProgress`) is armed with the point
    count and the block label ``"{label}/{dataset}"``; a bare callable
    only receives the completions.
    """
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    prepared = prepare_experiment(dataset, profile, seed=0,
                                  cache_dir=prepared_cache_dir(checkpoint_dir))
    points = [dict(config, seed=int(seed))
              for config in configs for seed in seeds]
    begin = getattr(progress, "begin", None)
    if begin is not None:
        begin(len(points), label=f"{label}/{dataset}", jobs=jobs)
    runs = run_method_grid(prepared, points, jobs=jobs,
                           checkpoint_dir=checkpoint_dir, resume=resume,
                           progress=progress)
    n = len(seeds)
    return [runs[i:i + n] for i in range(0, len(runs), n)]
