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
The entry's arrays and metadata are :func:`pack_prepared`'s output, and
:func:`rebuild_prepared` turns them back into a bit-identical experiment;
the packed arrays' content hash also scopes a grid's resume journal.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

import numpy as np

from ..data.datasets import DatasetSpec, SyntheticImageDataset
from ..nn.convnet import ConvNet
from .checkpoint import (CheckpointError, content_hash, read_checkpoint,
                         write_checkpoint)

__all__ = ["prepared_cache_path", "save_prepared", "load_prepared",
           "pack_prepared", "rebuild_prepared"]

KIND = "prepared"


def pack_prepared(prepared):
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


def rebuild_prepared(context: dict, arrays):
    """Reconstruct a prepared experiment from :func:`pack_prepared` output.

    The dataset wraps the given arrays directly (the experiment makes them
    read-only); model parameters are copied because training mutates them.
    """
    # Lazy: repro.experiments imports this package.
    from ..experiments.common import PreparedExperiment
    from ..experiments.profiles import get_profile

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


def prepared_cache_path(cache_dir: str | os.PathLike, dataset_name: str,
                        profile_name: str, seed: int) -> pathlib.Path:
    """Base path of the cache entry for one (dataset, profile, seed)."""
    return (pathlib.Path(cache_dir)
            / f"prepared-{dataset_name}-{profile_name}-s{int(seed)}")


def save_prepared(cache_dir: str | os.PathLike, prepared, *,
                  seed: int) -> pathlib.Path:
    """Write a prepared experiment into the cache; returns the base path."""
    arrays, context = pack_prepared(prepared)
    # The checkpoint hashes its arrays itself.
    meta = dict(context, seed=int(seed), spec=dataclasses.asdict(context["spec"]))
    del meta["content_hash"]
    return write_checkpoint(
        prepared_cache_path(cache_dir, context["dataset_name"],
                            context["profile_name"], seed),
        kind=KIND, arrays=arrays, meta=meta)


def load_prepared(cache_dir: str | os.PathLike, dataset_name: str,
                  profile_name: str, seed: int):
    """Load a cache entry, or ``None`` on any miss/invalidation."""
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
    return rebuild_prepared(dict(meta, spec=spec), ckpt.arrays)
