"""Lightweight metric helpers shared by evaluation code and experiments."""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Sequence

import numpy as np

__all__ = ["confusion_matrix", "mean_and_std", "relative_improvement"]


def confusion_matrix(true_labels: np.ndarray, predicted_labels: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """Return the (num_classes, num_classes) count matrix C[true, pred]."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise ValueError("label arrays must have identical shapes")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (true_labels, predicted_labels), 1)
    return matrix


def mean_and_std(values: Sequence[float] | Iterable[float]) -> tuple[float, float]:
    """Mean and (population) standard deviation of a value collection.

    An empty collection yields ``(nan, nan)`` with an explicit warning —
    never numpy's bare "mean of empty slice" RuntimeWarning — so aggregate
    reports over zero trials degrade to NaN cells instead of crashing.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        warnings.warn("mean_and_std of an empty collection: returning NaN",
                      RuntimeWarning, stacklevel=2)
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


def relative_improvement(ours: float, best_baseline: float) -> float:
    """Percent relative improvement over the best baseline (paper's metric)."""
    if best_baseline == 0:
        return math.inf if ours > 0 else 0.0
    return 100.0 * (ours - best_baseline) / best_baseline
