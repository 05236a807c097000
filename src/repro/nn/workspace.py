"""Per-step column-buffer cache for the condensation hot loop.

Every kernel allocates its scratch (im2col columns, padded inputs, col2im
canvases) as fresh numpy arrays; conv backward drops its columns as soon as
it has used them, and the rest goes with the graph, so nothing is pooled
between passes.  What bounds that scratch is the batch: training,
evaluation and pool encodes run in micro-batches of at most
:data:`repro.utils.batching.MICRO_BATCH_BYTES` of input (see
:func:`repro.utils.batching.micro_batches`).

The one reuse that still pays is semantic rather than allocator-level: the
Eq. 7 matcher convolves the *same* input array several times per condense
iteration, and :class:`StepCache` serves its first-layer columns to every
conv over it while a scope is open.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["StepCache", "default_step_cache"]


class StepCache:
    """Per-step column-buffer cache keyed by array identity + generation.

    The Eq. 7 matcher evaluates the *same* synthetic batch several times per
    condense iteration (``pass.g_syn``, ``pass.fd_plus``, ``pass.fd_minus``)
    with only the model weights perturbed — so the first-layer im2col columns
    of ``syn_x`` are identical across those passes.  A :class:`StepCache`
    scope makes :func:`repro.nn.functional.conv2d` compute them once and
    serve the cached buffer to every subsequent conv over the same input
    array within the scope.

    Contract
    --------
    * **Identity-keyed, multi-pin.**  A scope pins one specific ``ndarray``;
      scopes nest — the condense loop pins the real batch for the whole
      segment (its columns never change) while each iteration additionally
      pins the synthetic pixel block.  Lookups for any array that is not
      currently pinned fall through — deeper-layer convs are never cached.
      Pinned arrays are held by strong reference, so identity (``id``)
      cannot be recycled while a scope is open.
    * **Generation-tracked.**  :meth:`note_write` is the explicit
      invalidation hook: the condense loop calls it after the optimizer
      writes new pixel values, which bumps the content generation and drops
      that array's cached buffers.
      Entries from a previous generation can therefore never be served.
    * **Bounded lifetime.**  An array's entries are dropped when its
      outermost scope exits.  Invalidation must only happen at iteration
      boundaries, after the backward passes consuming the cached columns
      have run.
    * Single-threaded: the condense loops open scopes and run conv
      forwards on the one thread that owns the learner.
    """

    def __init__(self) -> None:
        self._pinned: dict[int, list] = {}  # id(arr) -> [arr, depth]
        self._entries: dict[tuple, np.ndarray] = {}
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0

    # -- scope lifecycle ---------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self._pinned)

    @contextlib.contextmanager
    def scope(self, arr: np.ndarray | None):
        """Activate caching for ``arr`` within the ``with`` block.

        Re-entrant for the same array (the FD evaluator opens a nested
        scope inside the condense loop's per-iteration scope), and
        composable across arrays (the segment-level real-batch scope wraps
        the per-iteration synthetic scopes).  A no-op when ``arr`` is
        ``None``.
        """
        if arr is None:
            yield self
            return
        pin = self._pinned.get(id(arr))
        if pin is not None and pin[0] is arr:
            pin[1] += 1
            try:
                yield self
            finally:
                pin[1] -= 1
            return
        pin = [arr, 1]
        self._pinned[id(arr)] = pin
        try:
            yield self
        finally:
            if pin[1] == 1:
                self._drop_entries(id(arr))
                del self._pinned[id(arr)]
            else:  # pragma: no cover - unbalanced nesting guard
                pin[1] -= 1

    def _pinned_for(self, arr: np.ndarray) -> bool:
        pin = self._pinned.get(id(arr))
        return pin is not None and pin[0] is arr

    # -- cache operations --------------------------------------------------
    def lookup(self, arr: np.ndarray, key: tuple) -> np.ndarray | None:
        """The cached buffer for ``(arr, key)``, or ``None``."""
        if not self._pinned_for(arr):
            return None
        buf = self._entries.get((id(arr),) + key)
        if buf is None:
            self.misses += 1
            return None
        self.hits += 1
        return buf

    def store(self, arr: np.ndarray, key: tuple, buf: np.ndarray) -> None:
        """Keep ``buf`` for ``(arr, key)`` while ``arr`` is pinned."""
        full = (id(arr),) + key
        if self._pinned_for(arr) and full not in self._entries:
            self._entries[full] = buf
            self.stores += 1

    def note_write(self, arr: np.ndarray) -> None:
        """Explicit invalidation: ``arr``'s contents were just rewritten."""
        if not self._pinned_for(arr):
            return
        aid = id(arr)
        if any(k[0] == aid for k in self._entries):
            self.invalidations += 1
            self._drop_entries(aid)
        else:
            self.generation += 1

    def _drop_entries(self, aid: int) -> None:
        self.generation += 1
        for full in [k for k in self._entries if k[0] == aid]:
            del self._entries[full]

    # -- introspection -----------------------------------------------------
    def entry_bytes(self) -> int:
        """Bytes currently pinned by cached column buffers."""
        return sum(buf.nbytes for buf in self._entries.values())

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "entry_bytes": self.entry_bytes(),
            "generation": self.generation,
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.stores = self.invalidations = 0


#: Process-wide per-step cache consulted by the conv forward.
default_step_cache = StepCache()

# Pull-style memory-ledger account: the step cache already keeps exact byte
# counts, so the ledger polls it on snapshot instead of taxing every store.
# repro.obs.memory is stdlib-only (no numpy, no telemetry) so this import
# cannot cycle back into the kernel layer.
from ..obs.memory import default_ledger as _default_ledger  # noqa: E402

_default_ledger.register_provider("cache.step_cache",
                                  default_step_cache.entry_bytes)
