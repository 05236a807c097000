"""On-device learner framework: the shared streaming loop.

A learner owns the deployed model and a buffer; the framework feeds it the
stream segment by segment, triggers a model update from the buffer every
``beta`` segments (Algorithm 1's ``t % beta == 0`` step), and records an
evaluation history (used for the Fig. 3 learning curves).
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..data.stream import Stream, StreamSegment
from ..nn import init
from ..nn.layers import Module
from ..utils.rng import to_rng
from .training import evaluate_accuracy, train_model

__all__ = ["LearnerConfig", "LearnerHistory", "OnDeviceLearner"]


@dataclass(frozen=True)
class LearnerConfig:
    """Shared on-device training hyper-parameters (§IV-A3).

    Attributes
    ----------
    beta:
        Model-update interval in segments (paper: 10).
    train_epochs:
        Epochs per model update on the buffer (paper: 200; scaled down in
        smoke profiles).
    lr / momentum / weight_decay / batch_size:
        SGD settings (paper: momentum SGD, wd 5e-4, batch 128; lr 1e-3 or
        1e-4 depending on the dataset).
    max_update_steps:
        Optional cap on SGD steps per model update, applied identically to
        every method; bounds the cost of updates on very large buffers
        (e.g. CIFAR-100 at IpC=50) on the CPU substrate.
    memory_budget_bytes:
        Declared on-device memory budget for the learner's persistent state
        (buffer payload + model parameters).  Purely observational: each
        segment's ``memory`` telemetry event reports the footprint against
        it and a breach bumps the ``memory.budget_exceeded`` counter — the
        run itself is never throttled.
    decode_factor:
        Linear resolution reduction of the condensed buffer's stored
        payload (DREAM-style factorized storage).  ``1`` stores full-
        resolution pixels; ``f > 1`` stores ``(C, ceil(H/f), ceil(W/f))``
        and decodes by bilinear upsample, fitting ``f**2`` more images per
        class in the same byte budget.  Only meaningful for the DECO
        learner's :class:`~repro.buffer.FactorizedSyntheticBuffer`.
    """

    beta: int = 10
    train_epochs: int = 30
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    max_update_steps: int | None = None
    memory_budget_bytes: int | None = None
    decode_factor: int = 1

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.train_epochs < 1:
            raise ValueError("train_epochs must be >= 1")
        if self.decode_factor < 1:
            raise ValueError("decode_factor must be >= 1")


@dataclass
class LearnerHistory:
    """Evaluation trace collected while streaming.

    ``samples_seen`` and ``accuracy`` are parallel arrays — exactly the axes
    of Fig. 3.  ``diagnostics`` accumulates per-segment learner stats
    (pseudo-label accuracy, retention, matching loss, ...).
    """

    samples_seen: list[int] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)

    def record_eval(self, samples: int, acc: float) -> None:
        self.samples_seen.append(int(samples))
        self.accuracy.append(float(acc))

    @property
    def final_accuracy(self) -> float:
        if not self.accuracy:
            raise ValueError("no evaluations recorded")
        return self.accuracy[-1]


def _model_nbytes(model: Module) -> int:
    """Parameter payload bytes of one network."""
    return sum(p.data.nbytes for p in model.parameters())


class OnDeviceLearner(abc.ABC):
    """Base class wiring a model + buffer into the streaming loop."""

    def __init__(self, model: Module, config: LearnerConfig,
                 rng: int | np.random.Generator | None = None) -> None:
        self.model = model
        self.config = config
        self.rng = to_rng(rng)
        self._scratch: Module | None = None
        obs.track_object("model.params", self, _model_nbytes(model))

    # -- subclass responsibilities ------------------------------------------
    @abc.abstractmethod
    def observe_segment(self, segment: StreamSegment) -> dict:
        """Consume one stream segment; return diagnostics for the history."""

    @abc.abstractmethod
    def training_set(self) -> tuple[np.ndarray, np.ndarray]:
        """Current buffer contents as (images, labels) for model updates."""

    # -- shared machinery -----------------------------------------------------
    def model_factory(self, rng: np.random.Generator) -> Module:
        """Return a freshly randomized copy of the deployed architecture.

        A single scratch network is reused across calls; only its weights
        are re-drawn (Algorithm 1's per-iteration model randomization).
        """
        if self._scratch is None:
            self._scratch = copy.deepcopy(self.model)
            obs.track_object("model.params", self._scratch,
                             _model_nbytes(self._scratch))
        init.reinitialize(self._scratch, rng)
        return self._scratch

    # -- memory accounting ---------------------------------------------------
    def buffer_nbytes(self) -> int:
        """Bytes of the learner's persistent sample store.

        Delegates to the buffer's own ``memory_bytes`` — the single
        byte-accounting definition shared with the memory ledger and the
        table1 Acc/MiB column — so factorized storage reports its reduced
        payload, not the decoded view.  Buffers without a ``memory_bytes``
        fall back to reflection over ``images``/``labels``/``aux``;
        learners with a different store override this.
        """
        buffer = getattr(self, "buffer", None)
        if buffer is None:
            return 0
        reported = getattr(buffer, "memory_bytes", None)
        if reported is not None:
            return int(reported)
        total = 0
        for name in ("images", "labels"):
            arr = getattr(buffer, name, None)
            if arr is not None:
                total += int(arr.nbytes)
        aux = getattr(buffer, "aux", None)
        if isinstance(aux, dict):
            total += sum(int(v.nbytes) for v in aux.values())
        return total

    def memory_footprint(self) -> dict[str, int]:
        """Byte footprint of the learner's persistent on-device state.

        ``buffer_bytes`` + deployed-model ``model_bytes`` — the quantities
        the paper's memory budget constrains (the condensation scratch
        network and the caches live in the ledger's other accounts).
        ``peak_bytes`` folds in the process-wide tracked
        high-water mark, so a segment that transiently doubled tracked
        memory is visible even in the per-run report.
        """
        buffer_bytes = self.buffer_nbytes()
        model_bytes = _model_nbytes(self.model)
        total = buffer_bytes + model_bytes
        return {
            "buffer_bytes": buffer_bytes,
            "model_bytes": model_bytes,
            "total_bytes": total,
            "peak_bytes": max(obs.default_ledger.high_water_bytes, total),
        }

    # -- checkpointing ---------------------------------------------------
    def _extra_state(self) -> dict[str, np.ndarray]:
        """Subclass hook: additional arrays to checkpoint (e.g. the buffer)."""
        return {}

    def _load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        """Subclass hook: restore arrays produced by :meth:`_extra_state`."""

    def checkpoint(self) -> dict[str, np.ndarray]:
        """Snapshot the deployed model (and subclass state) as flat arrays.

        :func:`repro.persist.save_learner_checkpoint` writes it; restores
        with :meth:`restore`.
        """
        state = {f"model.{name}": value
                 for name, value in self.model.state_dict().items()}
        for name, value in self._extra_state().items():
            state[f"extra.{name}"] = value
        return state

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot produced by :meth:`checkpoint`."""
        model_state = {name[len("model."):]: value
                       for name, value in state.items()
                       if name.startswith("model.")}
        self.model.load_state_dict(model_state)
        self._load_extra_state({name[len("extra."):]: value
                                for name, value in state.items()
                                if name.startswith("extra.")})

    def update_model(self) -> None:
        """Retrain the deployed model on the current buffer contents."""
        x, y = self.training_set()
        if len(x) == 0:
            return
        train_model(self.model, x, y, epochs=self.config.train_epochs,
                    lr=self.config.lr, momentum=self.config.momentum,
                    weight_decay=self.config.weight_decay,
                    batch_size=self.config.batch_size,
                    max_steps=self.config.max_update_steps, rng=self.rng)

    def run(self, stream: Stream, *, x_test: np.ndarray | None = None,
            y_test: np.ndarray | None = None,
            eval_every: int | None = None,
            checkpoint_every: int | None = None,
            checkpoint_dir=None,
            resume: bool = False) -> LearnerHistory:
        """Stream all segments through the learner.

        Parameters
        ----------
        stream:
            The non-i.i.d. input stream.
        x_test, y_test:
            Held-out evaluation data (required if ``eval_every`` is set or a
            final accuracy is wanted).
        eval_every:
            Evaluate every this many segments (for learning curves); the
            final state is always evaluated when test data is given.
        checkpoint_every / checkpoint_dir:
            Snapshot the learner (model, subclass state, RNG state,
            history, loop cursor) into ``checkpoint_dir`` every
            ``checkpoint_every`` segments, via
            :mod:`repro.persist.learner_io`.
        resume:
            Continue from the newest readable checkpoint in
            ``checkpoint_dir`` (no-op when there is none): already-consumed
            segments of the deterministic stream are skipped and all state
            is restored in place, so a killed-and-resumed run is
            bit-identical to an uninterrupted one for learners whose
            :meth:`checkpoint` captures their full state (DECO and the
            upper bound do; replay selection strategies keeping private
            cursors outside the buffer resume approximately).
        """
        can_eval = x_test is not None and y_test is not None
        if eval_every is not None and not can_eval:
            raise ValueError("eval_every requires x_test and y_test")
        if (checkpoint_every is not None or resume) and checkpoint_dir is None:
            raise ValueError("checkpoint_every/resume require checkpoint_dir")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

        history = LearnerHistory()
        samples_seen = 0
        trained_at = -1
        start_index = 0
        if resume:
            from ..persist import latest_learner_checkpoint, restore_learner
            ckpt = latest_learner_checkpoint(checkpoint_dir)
            if ckpt is not None:
                cursor = restore_learner(self, ckpt, history)
                start_index = cursor["segment_index"] + 1
                samples_seen = cursor["samples_seen"]
                trained_at = cursor["trained_at"]
                obs.event("resume", segment=cursor["segment_index"],
                          samples_seen=samples_seen)
        monitor = obs.get_monitor()
        for segment in stream:
            if segment.index < start_index:
                continue  # fast-forward a resumed run past consumed segments
            # Health incidents fired anywhere in this segment's work —
            # matcher passes, optimizer updates — carry its index.
            with monitor.segment_scope(segment.index):
                with obs.span("segment", segment=segment.index):
                    diag = self.observe_segment(segment)
                samples_seen += len(segment)
                retrained = (segment.index + 1) % self.config.beta == 0
                if retrained:
                    with obs.span("retrain", segment=segment.index):
                        self.update_model()
                    trained_at = segment.index
            if diag:
                diag["segment"] = segment.index
                history.diagnostics.append(diag)
            if obs.enabled():
                fields = {k: v for k, v in (diag or {}).items()
                          if k != "segment"}
                obs.event("segment", segment=segment.index,
                          samples_seen=samples_seen, retrain=retrained,
                          **fields)
                foot = self.memory_footprint()
                budget = self.config.memory_budget_bytes
                budget_ok = (budget is None
                             or foot["total_bytes"] <= budget)
                if not budget_ok:
                    obs.counter("memory.budget_exceeded")
                obs.event("memory", segment=segment.index,
                          budget_bytes=budget, budget_ok=budget_ok, **foot)
                obs.default_ledger.maybe_sample_rss()
            if (eval_every is not None
                    and (segment.index + 1) % eval_every == 0):
                history.record_eval(
                    samples_seen, evaluate_accuracy(self.model, x_test, y_test))
                obs.event("eval", segment=segment.index,
                          samples_seen=samples_seen,
                          accuracy=history.accuracy[-1])
            if (checkpoint_every is not None
                    and (segment.index + 1) % checkpoint_every == 0):
                from ..persist import save_learner_checkpoint
                with obs.span("checkpoint", segment=segment.index):
                    save_learner_checkpoint(
                        checkpoint_dir, self, segment_index=segment.index,
                        samples_seen=samples_seen, trained_at=trained_at,
                        history=history)
        # Fold in any segments after the last scheduled update, then do the
        # final evaluation the paper's "final average accuracy" reports.
        if trained_at != len(stream) - 1:
            with monitor.segment_scope(len(stream) - 1):
                with obs.span("retrain", segment=len(stream) - 1):
                    self.update_model()
        if can_eval:
            history.record_eval(samples_seen,
                                evaluate_accuracy(self.model, x_test, y_test))
            obs.event("eval", segment=len(stream) - 1,
                      samples_seen=samples_seen,
                      accuracy=history.accuracy[-1])
        if obs.enabled():
            obs.collect_runtime_counters()
        return history
