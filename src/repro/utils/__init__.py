"""Shared utilities: RNG threading, metrics, batching."""

from .batching import iterate_minibatches, micro_batches
from .metrics import confusion_matrix, mean_and_std
from .rng import spawn_rngs, to_rng

__all__ = [
    "to_rng", "spawn_rngs",
    "confusion_matrix", "mean_and_std",
    "iterate_minibatches", "micro_batches",
]
