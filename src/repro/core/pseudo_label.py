"""Majority-voting pseudo-label assignment (§III-B).

The deployed model labels each unlabeled sample of a stream segment; a
sliding window (set equal to the segment, as in the paper) counts the
pseudo-label frequency of every class, and classes whose share exceeds the
threshold ``m`` are *active* (Eq. 2).  Samples whose pseudo-label is not an
active class are discarded (Eq. 3) — temporal correlation means such
minority labels are likely mistakes.  :class:`NoisyPseudoLabeler` adds
controlled label noise after the filter (the noise-robustness study).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.layers import Module
from ..nn.tensor import Tensor, no_grad

__all__ = ["PseudoLabelResult", "predict_with_confidence",
           "MajorityVotePseudoLabeler", "NoisyPseudoLabeler"]


@dataclass(frozen=True)
class PseudoLabelResult:
    """Outcome of labeling one segment.

    Attributes
    ----------
    labels:
        (B,) pseudo-labels for every segment sample.
    confidences:
        (B,) softmax probability of the assigned label (the ``w_i`` weights
        of Eq. 4).
    active_classes:
        Classes passing the majority-vote threshold (Eq. 2).
    keep:
        (B,) boolean mask — True where the sample's pseudo-label is active
        (the ``I_t^A`` filter of Eq. 3).
    """

    labels: np.ndarray
    confidences: np.ndarray
    active_classes: tuple[int, ...]
    keep: np.ndarray

    @property
    def retained_fraction(self) -> float:
        """Share of the segment that survives filtering (Fig. 4a metric)."""
        return float(self.keep.mean()) if self.keep.size else 0.0


def predict_with_confidence(model: Module, images: np.ndarray,
                            batch_size: int = 256
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Model predictions and their softmax confidences, graph-free.

    ``model`` is any callable module: the whole network on images, or its
    classifier head on encoder features.  No rows give empty arrays.
    """
    if len(images) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    labels, confidences = [], []
    with no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start:start + batch_size]))
            probs = F.softmax(logits, axis=1).data
            idx = probs.argmax(axis=1)
            labels.append(idx)
            confidences.append(probs[np.arange(len(idx)), idx])
    return (np.concatenate(labels).astype(np.int64),
            np.concatenate(confidences).astype(np.float32))


class MajorityVotePseudoLabeler:
    """Assigns pseudo-labels and filters them by in-window majority voting.

    Parameters
    ----------
    threshold:
        ``m`` — minimum share of the window a class must hold to count as
        active (paper default 0.4).
    window_size:
        Size of the voting window.  ``None`` (the paper's simplification)
        uses the whole segment as one window.  A smaller window votes over
        consecutive chunks of the segment, which handles segments that
        straddle a class transition: each chunk elects its own active
        classes and samples are kept only if active within *their* chunk.
    """

    def __init__(self, threshold: float = 0.4,
                 window_size: int | None = None) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError("threshold must be in [0, 1)")
        if window_size is not None and window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.threshold = float(threshold)
        self.window_size = window_size

    def _vote(self, labels: np.ndarray, num_classes: int) -> np.ndarray:
        """Active classes of one window (Eq. 2)."""
        shares = np.bincount(labels, minlength=num_classes) / len(labels)
        return np.flatnonzero(shares > self.threshold)

    def label_segment(self, model: Module,
                      images: np.ndarray) -> PseudoLabelResult:
        """Label one segment and identify its active classes."""
        if len(images) == 0:
            return PseudoLabelResult(
                labels=np.empty(0, dtype=np.int64),
                confidences=np.empty(0, dtype=np.float32),
                active_classes=(), keep=np.empty(0, dtype=bool))
        labels, confidences = predict_with_confidence(model, images)
        window = self.window_size or len(labels)
        active: set[int] = set()
        keep = np.zeros(len(labels), dtype=bool)
        for start in range(0, len(labels), window):
            chunk = slice(start, start + window)
            chunk_active = self._vote(labels[chunk], model.num_classes)
            active.update(int(c) for c in chunk_active)
            keep[chunk] = np.isin(labels[chunk], chunk_active)
        return PseudoLabelResult(labels=labels, confidences=confidences,
                                 active_classes=tuple(sorted(active)),
                                 keep=keep)


class NoisyPseudoLabeler(MajorityVotePseudoLabeler):
    """Majority-vote labeler that corrupts a fraction of retained labels.

    Flips each retained label with probability ``noise_rate`` to a random
    *confusable* class (same anchor group, falling back to any other
    class), emulating the structured mistakes of Fig. 2 at a controlled
    rate.  The flip happens after the vote (Eq. 2/3), so a flipped sample
    stays kept: it models noise that slipped past the filter, and its wrong
    label reaches condensation.
    """

    def __init__(self, threshold: float = 0.4, *, noise_rate: float,
                 group_of: np.ndarray,
                 rng: int | np.random.Generator | None = None) -> None:
        super().__init__(threshold)
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        self.noise_rate = float(noise_rate)
        self.group_of = np.asarray(group_of)
        self._rng = np.random.default_rng(rng if isinstance(rng, int) or rng is None
                                          else rng.integers(2 ** 63))

    def _confusable_flip(self, label: int) -> int:
        same = np.flatnonzero(self.group_of == self.group_of[label])
        candidates = same[same != label]
        if candidates.size == 0:
            candidates = np.flatnonzero(np.arange(len(self.group_of)) != label)
        return int(self._rng.choice(candidates))

    def label_segment(self, model: Module,
                      images: np.ndarray) -> PseudoLabelResult:
        result = super().label_segment(model, images)
        if self.noise_rate == 0.0 or not result.keep.any():
            return result
        labels = result.labels.copy()
        flip = result.keep & (self._rng.random(len(labels)) < self.noise_rate)
        for i in np.flatnonzero(flip):
            labels[i] = self._confusable_flip(int(labels[i]))
        return dataclasses.replace(result, labels=labels)
