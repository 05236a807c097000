"""Shared experiment machinery: prepare → run-method.

Every table/figure runner builds on the same two steps, which
:func:`~repro.experiments.grid.run_grid` runs for it over a grid of
configs and seeds:

1. :func:`prepare_experiment` — generate the dataset, build the ConvNet,
   pre-train it offline on the labeled fraction (§IV-A1).
2. :func:`run_method` — run one on-device method (DECO, a selection
   baseline, a condensation baseline, or the upper bound) over a freshly
   ordered stream, starting from a copy of the pre-trained model.  Every
   knob a runner sweeps is a keyword of this function, so a grid point is
   a plain config dict.

The dataset is generated once per (dataset, profile); seeds vary the stream
order, the learner's and condenser's randomness, and the injected label
noise — matching how the paper runs "five trials with different random
seeds".
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..buffer.buffer import RawBuffer, SyntheticBuffer
from ..buffer.factorized import FactorizedSyntheticBuffer
from ..buffer.selection import (EXTRA_STRATEGY_NAMES, STRATEGY_NAMES,
                                make_strategy)
from ..condensation import CONDENSER_NAMES, CondensationMethod, make_condenser
from ..core.deco import DECOLearner, condense_offline
from ..core.learner import LearnerConfig, LearnerHistory
from ..core.pseudo_label import (MajorityVotePseudoLabeler,
                                 NoisyPseudoLabeler)
from ..core.replay import ReplayLearner, UpperBoundLearner
from ..core.training import evaluate_accuracy, train_model
from ..data.datasets import SyntheticImageDataset
from ..data.registry import load_dataset
from ..data.stream import make_stream
from ..nn.convnet import ConvNet
from ..persist import load_prepared, prepared_cache_path, save_prepared
from ..utils.rng import spawn_rngs, to_rng
from .profiles import (ExperimentProfile, get_profile, learning_rate,
                       pretrain_fraction, stream_settings)

__all__ = ["PreparedExperiment", "prepare_experiment", "run_method",
           "MethodResult", "METHOD_NAMES", "TimedCondenser"]

METHOD_NAMES = ("deco",) + STRATEGY_NAMES + EXTRA_STRATEGY_NAMES \
    + ("upper_bound",)

_PREPARED_CACHE: dict[tuple[str, str, int], "PreparedExperiment"] = {}


@dataclass
class PreparedExperiment:
    """A dataset plus a model pre-trained on its labeled fraction."""

    dataset_name: str
    profile: ExperimentProfile
    dataset: SyntheticImageDataset
    model: ConvNet
    pretrain_x: np.ndarray
    pretrain_y: np.ndarray
    pretrain_accuracy: float

    def __post_init__(self) -> None:
        # Every grid point, in every sweep worker, reads these arrays; a
        # write by one point would leak into the next, so none may write.
        ds = self.dataset
        for arr in (ds.x_train, ds.y_train, ds.train_sessions, ds.x_test,
                    ds.y_test, ds.group_of, ds.prototypes, self.pretrain_x,
                    self.pretrain_y):
            if arr is not None:
                arr.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays (``spawn`` workers) come back writeable.
        self.__dict__.update(state)
        self.__post_init__()

    def fresh_model(self) -> ConvNet:
        """An independent copy of the pre-trained deployed model."""
        return copy.deepcopy(self.model)

    def learner_config(self) -> LearnerConfig:
        return LearnerConfig(
            beta=10,
            train_epochs=self.profile.train_epochs,
            lr=learning_rate(self.dataset_name),
            # Cost knob for the CPU substrate: bound each model update to
            # roughly "train_epochs epochs on a 1k-sample buffer", applied
            # identically to every method so comparisons stay fair.
            max_update_steps=self.profile.train_epochs * 8,
            memory_budget_bytes=self.profile.memory_budget_mb * 2 ** 20,
        )


def prepare_experiment(dataset_name: str, profile_name: str = "smoke", *,
                       seed: int = 0,
                       use_cache: bool = True,
                       cache_dir: str | os.PathLike | None = None
                       ) -> PreparedExperiment:
    """Generate data and pre-train the model to deploy.

    Deterministic in (dataset_name, profile_name, seed); cached in-process
    because all methods of one comparison share the same starting point.

    ``cache_dir`` additionally persists the prepared experiment to disk
    (one checkpoint per key, see :mod:`repro.persist.prepared_cache`):
    repeated sweeps — including freshly started processes — load the
    pretrained weights and splits instead of re-pretraining.  A cache
    entry that fails identity or content-hash validation is ignored and
    rebuilt, never trusted.
    """
    key = (dataset_name, profile_name, int(seed))
    if use_cache and key in _PREPARED_CACHE:
        prepared = _PREPARED_CACHE[key]
        if cache_dir is not None:
            # Write through: an in-process hit must still leave a disk
            # entry so later processes (workers, resumed runs) find it.
            base = prepared_cache_path(cache_dir, dataset_name, profile_name,
                                       seed)
            if not base.with_suffix(".json").is_file():
                save_prepared(cache_dir, prepared, seed=seed)
        return prepared
    if cache_dir is not None:
        prepared = load_prepared(cache_dir, dataset_name, profile_name, seed)
        if prepared is not None:
            if use_cache:
                _PREPARED_CACHE[key] = prepared
            return prepared

    profile = get_profile(profile_name)
    dataset = load_dataset(dataset_name, profile.dataset_profile, seed=0)
    data_rng, model_rng, train_rng = spawn_rngs(seed, 3)

    model = ConvNet(dataset.channels, dataset.num_classes, dataset.image_size,
                    width=profile.model_width, depth=profile.model_depth,
                    rng=model_rng)
    fraction = pretrain_fraction(dataset_name, profile_name)
    pre_x, pre_y = dataset.pretrain_subset(fraction, rng=data_rng)
    train_model(model, pre_x, pre_y, epochs=profile.pretrain_epochs,
                lr=learning_rate(dataset_name), rng=train_rng)

    prepared = PreparedExperiment(
        dataset_name=dataset_name, profile=profile, dataset=dataset,
        model=model, pretrain_x=pre_x, pretrain_y=pre_y,
        pretrain_accuracy=evaluate_accuracy(model, dataset.x_test, dataset.y_test))
    if use_cache:
        _PREPARED_CACHE[key] = prepared
    if cache_dir is not None:
        save_prepared(cache_dir, prepared, seed=seed)
    return prepared


class TimedCondenser(CondensationMethod):
    """Delegating wrapper that accumulates condensation wall time and passes.

    Table II reports the total execution time of the condensation method
    itself; this wrapper isolates that from pseudo-labeling and model
    retraining.
    """

    def __init__(self, inner: CondensationMethod) -> None:
        self.inner = inner
        self.name = inner.name
        self.total_seconds = 0.0
        self.total_passes = 0
        self.total_iterations = 0

    def condense(self, *args, **kwargs):
        start = time.perf_counter()
        stats = self.inner.condense(*args, **kwargs)
        self.total_seconds += time.perf_counter() - start
        self.total_passes += stats.forward_backward_passes
        self.total_iterations += stats.iterations
        return stats


@dataclass
class MethodResult:
    """Outcome of one method run on one stream."""

    method: str
    ipc: int
    seed: int
    final_accuracy: float
    history: LearnerHistory
    wall_seconds: float
    condense_seconds: float = 0.0
    condense_passes: int = 0
    extra: dict = field(default_factory=dict)


def _fill_raw_buffer_from_pretrain(buffer: RawBuffer, x: np.ndarray,
                                   y: np.ndarray,
                                   rng: np.random.Generator) -> None:
    """Seed a baseline buffer with a class-balanced slice of pretrain data."""
    order: list[int] = []
    for c in np.unique(y):
        order.extend(np.flatnonzero(y == c))
    order = list(rng.permutation(order))
    for i in order[: buffer.capacity]:
        buffer.add(x[i], int(y[i]))


def run_method(prepared: PreparedExperiment, method: str, ipc: int, *,
               seed: int = 0,
               condenser_name: str = "deco",
               condenser_kwargs: dict | None = None,
               labeler_threshold: float = 0.4,
               noise_rate: float = 0.0,
               eval_every: int | None = None,
               config: LearnerConfig | None = None,
               checkpoint_every: int | None = None,
               checkpoint_dir: str | os.PathLike | None = None,
               resume: bool = False,
               decode_factor: int | None = None) -> MethodResult:
    """Run one on-device method over a freshly ordered stream.

    Parameters
    ----------
    prepared:
        Output of :func:`prepare_experiment`.
    method:
        ``"deco"``, one of the selection baselines
        (:data:`~repro.buffer.selection.STRATEGY_NAMES`), or
        ``"upper_bound"``.
    ipc:
        Images per class; buffer capacity is ``ipc * num_classes``.
    condenser_name / condenser_kwargs:
        For ``method="deco"``: which condensation algorithm fills the buffer
        (swapping in ``"dc"``/``"dsa"``/``"dm"`` reproduces Table II).
    labeler_threshold:
        Majority-voting threshold ``m`` (Fig. 4a sweeps this).
    noise_rate:
        Share of retained pseudo-labels flipped to a confusable class
        (:class:`~repro.core.pseudo_label.NoisyPseudoLabeler`, seeded by
        ``seed``); the noise-robustness study sweeps this.
    eval_every:
        Segment interval for learning-curve evaluations (Fig. 3).
    checkpoint_every / checkpoint_dir / resume:
        Mid-stream learner checkpointing, passed straight to
        :meth:`~repro.core.learner.OnDeviceLearner.run`: snapshot the
        learner every ``checkpoint_every`` segments into
        ``checkpoint_dir`` and, with ``resume=True``, continue from the
        newest checkpoint found there (bit-identical for learners whose
        ``checkpoint()`` captures their full state, e.g. DECO).  Note the
        ``condense_seconds``/``wall_seconds`` of a resumed run only cover
        the portion executed after the restore.
    decode_factor:
        Factorized condensed storage (DREAM-style): store the synthetic
        buffer at ``1/f`` linear resolution and decode by bilinear
        upsample (``method="deco"`` with the native ``"deco"`` condenser
        only — the DC/DSA/DM baselines write raw pixels and cannot decode).
        ``None`` takes the factor from ``config`` (default 1).
    """
    if method not in METHOD_NAMES:
        raise KeyError(f"unknown method {method!r}; available: {METHOD_NAMES}")
    if condenser_name not in CONDENSER_NAMES:
        raise KeyError(f"unknown condenser {condenser_name!r}")
    if ipc < 1:
        raise ValueError("ipc must be >= 1")
    if noise_rate and method != "deco":
        raise ValueError("noise_rate requires method='deco', the one "
                         "method that runs the majority-vote labeler")

    # Per-run peak: the ledger's high-water gauge is process-wide, so a
    # serial sweep would otherwise report an earlier, larger configuration's
    # peak for every later point.
    obs.default_ledger.reset_high_water()

    profile = prepared.profile
    dataset = prepared.dataset
    stream_rng, learner_rng, init_rng = spawn_rngs(seed + 1, 3)
    stream = make_stream(dataset, segment_size=profile.segment_size,
                         rng=stream_rng,
                         **stream_settings(prepared.dataset_name, profile.name))
    model = prepared.fresh_model()
    config = config or prepared.learner_config()
    if decode_factor is not None and decode_factor != config.decode_factor:
        config = dataclasses.replace(config, decode_factor=int(decode_factor))
    factor = config.decode_factor
    if factor != 1 and (method != "deco" or condenser_name != "deco"):
        raise ValueError(
            "decode_factor > 1 requires method='deco' with the native "
            "'deco' condenser; the DC/DSA/DM baselines and raw-replay "
            "buffers operate on full-resolution pixels")

    timed: TimedCondenser | None = None
    start = time.perf_counter()
    if method == "deco":
        kwargs = dict(condenser_kwargs or {})
        if condenser_name == "deco":
            kwargs.setdefault("iterations", profile.condense_iterations)
        timed = TimedCondenser(make_condenser(condenser_name, **kwargs))
        if factor != 1:
            buffer = FactorizedSyntheticBuffer(
                dataset.num_classes, ipc, dataset.image_shape(), factor=factor)
        else:
            buffer = SyntheticBuffer(dataset.num_classes, ipc,
                                     dataset.image_shape())
        labeler = (NoisyPseudoLabeler(labeler_threshold,
                                      noise_rate=noise_rate,
                                      group_of=dataset.group_of, rng=seed)
                   if noise_rate else
                   MajorityVotePseudoLabeler(labeler_threshold))
        learner = DECOLearner(model, buffer, condenser=timed, labeler=labeler,
                              config=config, rng=learner_rng)
        condense_offline(buffer, prepared.pretrain_x, prepared.pretrain_y,
                         condenser=timed, model_factory=learner.model_factory,
                         rounds=profile.offline_condense_rounds, rng=init_rng)
    elif method == "upper_bound":
        learner = UpperBoundLearner(model, config=config, rng=learner_rng)
    else:
        buffer = RawBuffer(ipc * dataset.num_classes, dataset.image_shape())
        _fill_raw_buffer_from_pretrain(buffer, prepared.pretrain_x,
                                       prepared.pretrain_y, init_rng)
        learner = ReplayLearner(model, buffer, make_strategy(method),
                                config=config, rng=learner_rng)

    history = learner.run(stream, x_test=dataset.x_test, y_test=dataset.y_test,
                          eval_every=eval_every,
                          checkpoint_every=checkpoint_every,
                          checkpoint_dir=checkpoint_dir, resume=resume)
    wall = time.perf_counter() - start

    # Memory accounting works with telemetry disabled: the footprint is one
    # post-run probe of the learner's persistent state, judged against the
    # profile's declared on-device budget.
    foot = learner.memory_footprint()
    budget = config.memory_budget_bytes
    memory = dict(foot, budget_bytes=budget,
                  budget_ok=budget is None or foot["total_bytes"] <= budget)

    return MethodResult(
        method=method if method != "deco" else f"deco[{condenser_name}]",
        ipc=ipc, seed=seed, final_accuracy=history.final_accuracy,
        history=history, wall_seconds=wall,
        condense_seconds=timed.total_seconds if timed else 0.0,
        condense_passes=timed.total_passes if timed else 0,
        extra={"memory": memory},
    )
