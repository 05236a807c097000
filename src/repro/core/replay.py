"""Replay learner for the selection baselines (Table I columns 1-5).

Runs the same on-device loop as DECO — same stream, same pseudo-labeling by
the deployed model, same periodic retraining — but maintains a raw-sample
buffer with one of the selection strategies instead of condensing.
"""

from __future__ import annotations

import numpy as np

from ..buffer.buffer import RawBuffer
from ..buffer.selection import SelectionStrategy, encode_features
from ..data.stream import StreamSegment
from ..nn.layers import Module
from .learner import LearnerConfig, OnDeviceLearner
from .pseudo_label import predict_with_confidence

__all__ = ["ReplayLearner", "UpperBoundLearner"]


class ReplayLearner(OnDeviceLearner):
    """Selection-based rehearsal: store raw pseudo-labeled stream samples."""

    def __init__(self, model: Module, buffer: RawBuffer,
                 strategy: SelectionStrategy, *,
                 config: LearnerConfig = LearnerConfig(),
                 rng: int | np.random.Generator | None = None) -> None:
        super().__init__(model, config, rng)
        self.buffer = buffer
        self.strategy = strategy

    def observe_segment(self, segment: StreamSegment) -> dict:
        """Pseudo-label one segment and offer it to the selection strategy.

        The deployed encoder runs once over the segment (graph-free, in
        micro-batches).  The classifier head turns those features into the
        pseudo-labels and confidences, the same bytes the whole model
        gives, and the strategy receives the features with the samples, so
        no strategy encodes the segment again.  An empty segment leaves the
        buffer untouched.
        """
        features = encode_features(self.model, segment.images)
        labels, confidences = predict_with_confidence(self.model.classifier,
                                                      features)
        self.strategy.process_segment(self.buffer, segment.images, labels,
                                      confidences, model=self.model,
                                      rng=self.rng, features=features)
        return {
            "pseudo_label_accuracy": float(
                (labels == segment.hidden_labels).mean()) if len(segment) else 0.0,
            "buffer_fill": len(self.buffer) / self.buffer.capacity,
        }

    def training_set(self) -> tuple[np.ndarray, np.ndarray]:
        return self.buffer.as_training_set()

    def _extra_state(self) -> dict[str, np.ndarray]:
        state = {f"buffer.{key}": value
                 for key, value in self.buffer.state_dict().items()}
        state.update({f"strategy.{key}": value
                      for key, value in self.strategy.state_dict().items()})
        return state

    def _load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        # Restores buffer contents + fill counters AND the strategy's
        # private cursors (FIFO slot pointer, GSS gradient embeddings,
        # herding candidate pools), so a resumed replay run is bit-exact,
        # not just faithful in buffer contents.  Checkpoints from before
        # strategies persisted state simply have no ``strategy.*`` keys.
        self.buffer.load_state_dict(
            {key[len("buffer."):]: value for key, value in state.items()
             if key.startswith("buffer.")})
        self.strategy.load_state_dict(
            {key[len("strategy."):]: value for key, value in state.items()
             if key.startswith("strategy.")})


class UpperBoundLearner(OnDeviceLearner):
    """Oracle with an unlimited buffer and ground-truth labels.

    Produces the "Upper Bound" column of Table I: the end accuracy
    achievable if the device could store the entire stream, labeled.
    """

    def __init__(self, model: Module, *,
                 config: LearnerConfig = LearnerConfig(),
                 rng: int | np.random.Generator | None = None) -> None:
        super().__init__(model, config, rng)
        self._images: list[np.ndarray] = []
        self._labels: list[np.ndarray] = []

    def observe_segment(self, segment: StreamSegment) -> dict:
        self._images.append(segment.images)
        self._labels.append(segment.hidden_labels)
        return {}

    def buffer_nbytes(self) -> int:
        """The oracle's "buffer" is every retained segment."""
        return (sum(int(x.nbytes) for x in self._images)
                + sum(int(y.nbytes) for y in self._labels))

    def training_set(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._images:
            return (np.empty((0,)), np.empty((0,), dtype=np.int64))
        return np.concatenate(self._images), np.concatenate(self._labels)

    def _extra_state(self) -> dict[str, np.ndarray]:
        images, labels = self.training_set()
        return {"seen_images": images, "seen_labels": labels}

    def _load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        images = state["seen_images"]
        labels = state["seen_labels"]
        self._images = [images.copy()] if len(images) else []
        self._labels = [labels.copy()] if len(labels) else []
