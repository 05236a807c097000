"""Reusable scratch-buffer arena for the kernel layer.

Small-batch on-device shapes spend a surprising fraction of their wall clock
in ``malloc``/page-fault traffic: every conv forward used to allocate a fresh
im2col column matrix (tens of MB for CIFAR-scale batches), every col2im a
fresh zeroed gradient canvas, and every normalization a handful of
intermediates.  The :class:`WorkspaceArena` keeps freed buffers in per-shape
free lists so the next call of the same shape reuses already-faulted pages
instead of asking the allocator again.

Design notes
------------
* **Safety over reuse.**  The arena never hands out a buffer that has not
  been explicitly :meth:`released <WorkspaceArena.release>`.  A buffer whose
  release is skipped (e.g. a backward closure that never runs) is simply
  garbage-collected by Python — reuse is lost, correctness never is.
* **Idempotent release.**  Releasing the same array twice is a no-op; the
  arena tracks pooled buffer identities so a double release can never cause
  the same memory to be checked out twice.
* **Bounded.**  Total pooled bytes are capped (``max_bytes``); releases past
  the cap evict least-recently-released buffers.

Knobs (also settable via environment variables, read at import time):

* ``REPRO_WORKSPACE=0`` disables pooling entirely (acquire falls back to
  plain numpy allocation).
* ``REPRO_WORKSPACE_MAX_MB`` caps the pooled bytes (default 512 MB).
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict

import numpy as np

__all__ = ["WorkspaceArena", "default_arena", "StepCache", "default_step_cache"]


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


class WorkspaceArena:
    """Pool of reusable scratch ``ndarray`` buffers keyed by (shape, dtype)."""

    def __init__(self, *, max_bytes: int | None = None,
                 enabled: bool | None = None) -> None:
        if max_bytes is None:
            max_bytes = _env_int("REPRO_WORKSPACE_MAX_MB", 512) * 1024 * 1024
        if enabled is None:
            enabled = _env_flag("REPRO_WORKSPACE", True)
        self.max_bytes = int(max_bytes)
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        # (shape, dtype-str) -> list of free buffers of exactly that spec.
        self._pools: dict[tuple, list[np.ndarray]] = {}
        # id(buffer) -> key, in release order (for LRU eviction + dedup).
        self._pooled_ids: OrderedDict[int, tuple] = OrderedDict()
        self._pooled_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Total borrow traffic and the pooled-bytes high-water mark — the
        # occupancy numbers the telemetry layer reports per run.
        self.borrowed_bytes = 0
        self.high_water_bytes = 0

    # -- lifecycle ---------------------------------------------------------
    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def acquire(self, shape: tuple[int, ...], dtype=np.float32, *,
                zero: bool = False) -> np.ndarray:
        """Return a contiguous buffer of ``shape``/``dtype``.

        The contents are uninitialized unless ``zero=True``.  The caller owns
        the buffer until it hands it back via :meth:`release` (optional).
        """
        if not self.enabled:
            return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        key = self._key(shape, dtype)
        nbytes = int(np.prod(key[0], dtype=np.int64)) * np.dtype(dtype).itemsize
        buf = None
        with self._lock:
            pool = self._pools.get(key)
            if pool:
                buf = pool.pop()
                self._pooled_ids.pop(id(buf), None)
                self._pooled_bytes -= buf.nbytes
                self.hits += 1
            else:
                self.misses += 1
            self.borrowed_bytes += nbytes
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
        if zero:
            buf.fill(0)
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Hand a buffer back for reuse.  Safe to skip; safe to repeat."""
        if not self.enabled or buf is None:
            return
        if buf.base is not None:
            base = buf.base
            if isinstance(base, np.ndarray) and base.size == buf.size:
                buf = base  # full-size view (transpose/reshape) of a buffer
            else:
                return  # partial views are never poolable
        if buf.base is not None or not buf.flags.c_contiguous:
            return  # only whole, contiguous buffers are poolable
        key = self._key(buf.shape, buf.dtype)
        with self._lock:
            if id(buf) in self._pooled_ids:
                return  # double release: already pooled
            if buf.nbytes > self.max_bytes:
                return
            self._pools.setdefault(key, []).append(buf)
            self._pooled_ids[id(buf)] = key
            self._pooled_bytes += buf.nbytes
            self.high_water_bytes = max(self.high_water_bytes,
                                        self._pooled_bytes)
            while self._pooled_bytes > self.max_bytes and self._pooled_ids:
                old_id, old_key = self._pooled_ids.popitem(last=False)
                pool = self._pools.get(old_key, [])
                for i, candidate in enumerate(pool):
                    if id(candidate) == old_id:
                        evicted = pool.pop(i)
                        self._pooled_bytes -= evicted.nbytes
                        self.evictions += 1
                        break

    def clear(self) -> None:
        with self._lock:
            self._pools.clear()
            self._pooled_ids.clear()
            self._pooled_bytes = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0
            self.borrowed_bytes = self.high_water_bytes = 0

    # -- introspection -----------------------------------------------------
    @property
    def pooled_bytes(self) -> int:
        return self._pooled_bytes

    def stats(self) -> dict[str, int | bool]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pooled_buffers": len(self._pooled_ids),
                "pooled_bytes": self._pooled_bytes,
                "borrowed_bytes": self.borrowed_bytes,
                "high_water_bytes": self.high_water_bytes,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (f"WorkspaceArena(enabled={s['enabled']}, hits={s['hits']}, "
                f"misses={s['misses']}, pooled={s['pooled_buffers']} bufs / "
                f"{s['pooled_bytes'] / 1e6:.1f} MB)")


#: Process-wide arena used by the kernel layer.
default_arena = WorkspaceArena()


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
      that array's cached buffers (releasing them back to the arena).
      Entries from a previous generation can therefore never be served.
    * **Bounded lifetime.**  An array's entries are dropped when its
      outermost scope exits.  Invalidation must only happen at iteration
      boundaries, after the backward passes consuming the cached columns
      have run.
    * Single-threaded: the condense loops open scopes and run conv
      forwards on the one thread that owns the learner.
    """

    def __init__(self, arena: WorkspaceArena | None = None) -> None:
        self._arena = arena
        self._pinned: dict[int, list] = {}  # id(arr) -> [arr, depth]
        self._entries: dict[tuple, np.ndarray] = {}
        self._owned_ids: set[int] = set()
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

    def store(self, arr: np.ndarray, key: tuple, buf: np.ndarray) -> bool:
        """Adopt ``buf`` for ``(arr, key)``.  Returns whether the cache took
        ownership — if ``True`` the caller must no longer release ``buf``."""
        full = (id(arr),) + key
        if not self._pinned_for(arr) or full in self._entries:
            return False
        self._entries[full] = buf
        self._owned_ids.add(id(buf))
        self.stores += 1
        return True

    def owns(self, buf: np.ndarray) -> bool:
        """Whether ``buf`` is currently a cache-owned entry."""
        return id(buf) in self._owned_ids

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
        arena = self._arena if self._arena is not None else default_arena
        for full in [k for k in self._entries if k[0] == aid]:
            buf = self._entries.pop(full)
            self._owned_ids.discard(id(buf))
            arena.release(buf)

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

# Pull-style memory-ledger accounts: the arena and step cache already keep
# exact byte counts, so the ledger polls them on snapshot instead of taxing
# every acquire/release.  repro.obs.memory is stdlib-only (no numpy, no
# telemetry) so this import cannot cycle back into the kernel layer.
from ..obs.memory import default_ledger as _default_ledger  # noqa: E402

_default_ledger.register_provider("workspace.arena",
                                  lambda: default_arena.pooled_bytes)
_default_ledger.register_provider("cache.step_cache",
                                  default_step_cache.entry_bytes)
