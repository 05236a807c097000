"""Shared utilities: RNG threading, metrics, batching, serialization."""

from .ascii_art import render_grid, render_image
from .batching import iterate_minibatches, micro_batches
from .metrics import RunningMean, confusion_matrix, mean_and_std
from .rng import spawn_rngs, to_rng
from .serialization import load_array_dict, save_array_dict

__all__ = [
    "to_rng", "spawn_rngs",
    "confusion_matrix", "mean_and_std", "RunningMean",
    "iterate_minibatches", "micro_batches",
    "save_array_dict", "load_array_dict",
    "render_image", "render_grid",
]
