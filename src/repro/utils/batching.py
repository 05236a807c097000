"""Minibatch and micro-batch iteration helpers."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["iterate_minibatches", "micro_batches", "MICRO_BATCH_BYTES"]

#: Largest float32 input one micro-batch may hold: ~20 rows at 3x16x16 and
#: ~5 at 3x32x32, so a ConvNet micro-batch's largest activation stays well
#: inside a 2 MiB L2 cache.
MICRO_BATCH_BYTES = 64 * 1024


def iterate_minibatches(num_items: int, batch_size: int, *,
                        rng: np.random.Generator | None = None,
                        drop_last: bool = False) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(num_items)`` in batches.

    Shuffles when ``rng`` is provided; otherwise iterates in order.
    """
    if num_items <= 0:
        return
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = rng.permutation(num_items) if rng is not None else np.arange(num_items)
    for start in range(0, num_items, batch_size):
        batch = order[start:start + batch_size]
        if drop_last and batch.size < batch_size:
            return
        yield batch


def micro_batches(x: np.ndarray, *, max_rows: int | None = None,
                  lanes: int = 1) -> list[slice]:
    """Split the rows of ``x`` evenly into slices of at most
    :data:`MICRO_BATCH_BYTES` of float32 input each (at least one row).

    Every pass over an array of arbitrary length (a training minibatch, an
    evaluation set, a selection pool, a condensation batch) runs slice by
    slice, so its transient memory is bounded by the slice, not by the
    array; every layer of the models that run this way is per-sample, so
    the split leaves each row's result unchanged.  ``lanes`` is the number
    of copies of each row one pass stacks (the lane-stacked ±ε evaluation
    runs two), so the cap covers the stacked input.  ``max_rows`` caps the
    slice length further.
    """
    n = len(x)
    if n == 0:
        return []
    per = max(1, MICRO_BATCH_BYTES // (4 * lanes * (x.size // n) or 1))
    if max_rows is not None:
        per = min(per, max_rows)
    parts = -(-n // per)
    return [slice(i * n // parts, (i + 1) * n // parts) for i in range(parts)]
