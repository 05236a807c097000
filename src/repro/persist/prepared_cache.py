"""On-disk cache of prepared experiments (weights + splits + pretrain set).

:func:`~repro.experiments.common.prepare_experiment` is the expensive
prologue of every sweep: dataset generation plus offline pre-training.
This cache stores its output as one checkpoint per
``(dataset, profile, seed)`` so repeated sweeps — and freshly spawned
worker processes — load the pretrained weights and splits from disk
instead of re-pretraining.

Invalidation rules (in order):

* no manifest for the key -> miss (first run writes it);
* manifest schema newer than this reader, kind mismatch, or identity
  fields (dataset/profile/seed) disagreeing with the request -> miss;
* content hash mismatch (truncated or hand-edited arrays) -> miss.

A miss is never fatal: the caller re-prepares and overwrites the entry.
The entry's arrays and metadata are
:func:`~repro.experiments.grid.pack_prepared`'s output, and
:func:`~repro.experiments.grid.rebuild_prepared` turns them back into a
bit-identical experiment; the packed arrays' content hash also scopes a
grid's resume journal.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint

__all__ = ["prepared_cache_path", "save_prepared", "load_prepared"]

KIND = "prepared"


def prepared_cache_path(cache_dir: str | os.PathLike, dataset_name: str,
                        profile_name: str, seed: int) -> pathlib.Path:
    """Base path of the cache entry for one (dataset, profile, seed)."""
    return (pathlib.Path(cache_dir)
            / f"prepared-{dataset_name}-{profile_name}-s{int(seed)}")


def save_prepared(cache_dir: str | os.PathLike, prepared, *,
                  seed: int) -> pathlib.Path:
    """Write a prepared experiment into the cache; returns the base path."""
    from ..experiments.grid import pack_prepared

    arrays, context = pack_prepared(prepared)
    meta = {
        "dataset_name": context["dataset_name"],
        "profile_name": context["profile_name"],
        "seed": int(seed),
        "pretrain_accuracy": context["pretrain_accuracy"],
        "param_names": context["param_names"],
        "has_prototypes": context["has_prototypes"],
        "spec": dataclasses.asdict(context["spec"]),
    }
    return write_checkpoint(
        prepared_cache_path(cache_dir, context["dataset_name"],
                            context["profile_name"], seed),
        kind=KIND, arrays=arrays, meta=meta)


def load_prepared(cache_dir: str | os.PathLike, dataset_name: str,
                  profile_name: str, seed: int):
    """Load a cache entry, or ``None`` on any miss/invalidation."""
    from ..data.datasets import DatasetSpec
    from ..experiments.grid import rebuild_prepared

    base = prepared_cache_path(cache_dir, dataset_name, profile_name, seed)
    try:
        ckpt = read_checkpoint(base, expected_kind=KIND)
    except CheckpointError:
        return None
    meta = ckpt.meta
    if (meta.get("dataset_name") != dataset_name
            or meta.get("profile_name") != profile_name
            or meta.get("seed") != int(seed)):
        return None
    try:
        spec = DatasetSpec(**meta["spec"])
    except (KeyError, TypeError):
        return None
    context = {
        "dataset_name": meta["dataset_name"],
        "profile_name": meta["profile_name"],
        "spec": spec,
        "pretrain_accuracy": meta["pretrain_accuracy"],
        "param_names": list(meta["param_names"]),
        "has_prototypes": bool(meta["has_prototypes"]),
    }
    return rebuild_prepared(context, ckpt.arrays)
