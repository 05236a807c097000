"""Fan experiment grid points out through the Layer-2 sweep executor.

Every table/figure runner reduces to "run :func:`~repro.experiments.common.
run_method` once per grid point on a shared :class:`~repro.experiments.
common.PreparedExperiment`".  :func:`run_method_grid` is that loop run
through :func:`repro.parallel.run_sweep`, with the prepared experiment as
the sweep's context: with ``jobs=1`` (the default) the points run in
order in-process; with ``jobs>1`` every worker process gets the prepared
experiment once (inherited under ``fork``, pickled once under ``spawn``)
and the grid points run concurrently, results returned in grid order.

Workers hold the same array bytes and model parameters as the parent, and
``run_method`` copies the model before training, so a grid point produces
bit-identical results whichever process runs it; only wall-clock changes
with ``jobs``.

:func:`pack_prepared`/:func:`rebuild_prepared` are the on-disk format of
:mod:`repro.persist.prepared_cache`; the packed arrays' content hash also
scopes the resume journal.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

from ..parallel import run_sweep
from ..persist import ResumeJournal, content_hash, method_result_store
from .common import (MethodResult, PreparedExperiment, prepare_experiment,
                     run_method)

__all__ = ["run_method_grid", "pack_prepared", "rebuild_prepared",
           "grid_journal", "prepared_cache_dir", "begin_progress"]


def begin_progress(progress, total: int, *, label: str = "",
                   jobs: int = 1) -> None:
    """Arm a progress reporter for an upcoming grid, if it supports it.

    Drivers call this once per grid so the reporter can label the block
    and reset its ETA statistics; plain callables without a ``begin``
    method (bare ``on_result`` hooks) are fine and simply skip it.
    """
    begin = getattr(progress, "begin", None)
    if begin is not None:
        begin(total, label=label, jobs=jobs)


def prepared_cache_dir(checkpoint_dir: str | os.PathLike | None
                       ) -> pathlib.Path | None:
    """Where a checkpoint dir keeps its prepared-experiment cache."""
    if checkpoint_dir is None:
        return None
    return pathlib.Path(checkpoint_dir) / "prepared"


def pack_prepared(prepared: PreparedExperiment):
    """Split a prepared experiment into (arrays, small metadata dict).

    The arrays dict holds the dataset splits, the pretrain subset and the
    model parameters (prefixed ``param.``); :func:`rebuild_prepared` turns
    both halves back into an identical experiment.
    """
    ds = prepared.dataset
    arrays = {
        "x_train": ds.x_train,
        "y_train": ds.y_train,
        "train_sessions": ds.train_sessions,
        "x_test": ds.x_test,
        "y_test": ds.y_test,
        "group_of": ds.group_of,
        "pretrain_x": prepared.pretrain_x,
        "pretrain_y": prepared.pretrain_y,
    }
    has_prototypes = ds.prototypes is not None
    if has_prototypes:
        arrays["prototypes"] = ds.prototypes
    state = prepared.model.state_dict()
    for name, value in state.items():
        arrays["param." + name] = value
    context = {
        "dataset_name": prepared.dataset_name,
        "profile_name": prepared.profile.name,
        "spec": ds.spec,
        "pretrain_accuracy": prepared.pretrain_accuracy,
        "param_names": list(state),
        "has_prototypes": has_prototypes,
        # Byte-level identity of this prepared state: scopes resume-journal
        # entries, so two experiments that merely share (dataset, profile)
        # never alias.
        "content_hash": content_hash(arrays),
    }
    return arrays, context


def rebuild_prepared(context: dict, arrays) -> PreparedExperiment:
    """Reconstruct a prepared experiment from :func:`pack_prepared` output.

    The dataset wraps the given arrays directly (the experiment makes them
    read-only); model parameters are copied because training mutates them.
    """
    from ..data.datasets import SyntheticImageDataset
    from ..nn.convnet import ConvNet
    from .profiles import get_profile

    profile = get_profile(context["profile_name"])
    ds = SyntheticImageDataset(
        spec=context["spec"],
        x_train=arrays["x_train"],
        y_train=arrays["y_train"],
        train_sessions=arrays["train_sessions"],
        x_test=arrays["x_test"],
        y_test=arrays["y_test"],
        group_of=arrays["group_of"],
        prototypes=arrays["prototypes"] if context["has_prototypes"] else None)
    model = ConvNet(ds.channels, ds.num_classes, ds.image_size,
                    width=profile.model_width, depth=profile.model_depth,
                    rng=np.random.default_rng(0))
    model.load_state_dict({name: np.asarray(arrays["param." + name])
                           for name in context["param_names"]})
    return PreparedExperiment(
        dataset_name=context["dataset_name"], profile=profile, dataset=ds,
        model=model, pretrain_x=arrays["pretrain_x"],
        pretrain_y=arrays["pretrain_y"],
        pretrain_accuracy=context["pretrain_accuracy"])


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
