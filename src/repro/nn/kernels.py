"""Cached convolution kernel plans and the seed im2col/col2im oracles.

Every conv call in the condensation hot loop used to re-derive its im2col
geometry, allocate fresh column buffers, and run a Python ``kh x kw``
scatter loop for the input gradient.  This module centralizes that
per-shape work in a :class:`ConvPlan` that is computed once and cached in a
bounded LRU keyed on ``(n, c, h, w, kh, kw, stride, pad)``: the im2col
window geometry (strided-view shape plus column-buffer shape) and a
*clipped slice table* for the col2im scatter-add, precomputed so the
scatter writes straight into the **unpadded** gradient canvas (no padded
scratch, no interior copy).

The column buffer is always C-contiguous ``(n, c*kh*kw, oh*ow)``, and the
conv contractions in :mod:`repro.nn.functional` are plain ``np.matmul``
calls on it, so every activation and gradient stays C-contiguous NCHW.

The seed (pre-plan) ``_im2col``/``_col2im`` are preserved verbatim as
:func:`im2col_reference`/:func:`col2im_reference`: the test oracle for
the kernels and the baseline of the micro-benchmarks, which call them
directly.  No production op dispatches to them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = [
    "ConvPlan",
    "get_conv_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_plan_cache_limit",
    "im2col",
    "col2im",
    "im2col_reference",
    "col2im_reference",
]


# ----------------------------------------------------------------------
# Convolution plans
# ----------------------------------------------------------------------
class ConvPlan:
    """Precomputed geometry for one (input shape, kernel, stride, pad)."""

    __slots__ = (
        "n", "c", "h", "w", "kh", "kw", "stride", "pad",
        "hp", "wp", "oh", "ow", "cols_shape6", "cols_shape", "slices",
    )

    def __init__(self, n: int, c: int, h: int, w: int, kh: int, kw: int,
                 stride: int, pad: int) -> None:
        self.n, self.c, self.h, self.w = n, c, h, w
        self.kh, self.kw, self.stride, self.pad = kh, kw, stride, pad
        self.hp, self.wp = h + 2 * pad, w + 2 * pad
        self.oh = (self.hp - kh) // stride + 1
        self.ow = (self.wp - kw) // stride + 1
        if self.oh < 1 or self.ow < 1:
            raise ValueError(f"kernel ({kh},{kw}) too large for padded input "
                             f"({self.hp},{self.wp})")
        self.cols_shape6 = (n, c, kh, kw, self.oh, self.ow)
        self.cols_shape = (n, c * kh * kw, self.oh * self.ow)
        self.slices = self._build_slices()

    # -- scatter table -----------------------------------------------------
    def _build_slices(self):
        """Clipped slice table: (i, j) -> destination/source slices.

        Each kernel tap (i, j) contributes ``dcols[:, :, i, j, a, b]`` to
        unpadded pixel ``(i + a*stride - pad, j + b*stride - pad)``.  The
        table pre-clips the (a, b) ranges whose targets fall inside the
        unpadded canvas, so the scatter needs no padded scratch buffer.
        """
        out = []
        s, p = self.stride, self.pad
        for i in range(self.kh):
            a_lo = max(0, -(-(p - i) // s))  # ceil((p - i) / s)
            a_hi = min(self.oh - 1, (self.h - 1 + p - i) // s)
            if a_lo > a_hi:
                continue
            y0 = i + a_lo * s - p
            dst_h = slice(y0, y0 + (a_hi - a_lo) * s + 1, s)
            src_a = slice(a_lo, a_hi + 1)
            for j in range(self.kw):
                b_lo = max(0, -(-(p - j) // s))
                b_hi = min(self.ow - 1, (self.w - 1 + p - j) // s)
                if b_lo > b_hi:
                    continue
                x0 = j + b_lo * s - p
                dst_w = slice(x0, x0 + (b_hi - b_lo) * s + 1, s)
                src_b = slice(b_lo, b_hi + 1)
                out.append((i, j, dst_h, dst_w, src_a, src_b))
        return tuple(out)

    def approx_nbytes(self) -> int:
        """Approximate resident bytes of this plan: a flat per-entry
        overhead estimate for the slice table (the ledger's 10% audit
        tolerance absorbs the slack)."""
        return 512 + 96 * len(self.slices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConvPlan(n={self.n}, c={self.c}, hw=({self.h},{self.w}), "
                f"k=({self.kh},{self.kw}), stride={self.stride}, pad={self.pad})")


_PLAN_LOCK = threading.Lock()
_PLAN_CACHE: OrderedDict[tuple, ConvPlan] = OrderedDict()
_PLAN_CACHE_LIMIT = 32
_PLAN_HITS = 0
_PLAN_MISSES = 0
_PLAN_EVICTIONS = 0


def get_conv_plan(n: int, c: int, h: int, w: int, kh: int, kw: int,
                  stride: int, pad: int) -> ConvPlan:
    """Fetch (or build and cache) the plan for one conv geometry."""
    global _PLAN_HITS, _PLAN_MISSES, _PLAN_EVICTIONS
    key = (n, c, h, w, kh, kw, stride, pad)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            _PLAN_HITS += 1
            return plan
        _PLAN_MISSES += 1
    plan = ConvPlan(n, c, h, w, kh, kw, stride, pad)
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_EVICTIONS += 1
    return plan


def plan_cache_info() -> dict[str, int]:
    info = {}
    with _PLAN_LOCK:
        info.update(size=len(_PLAN_CACHE), limit=_PLAN_CACHE_LIMIT,
                    hits=_PLAN_HITS, misses=_PLAN_MISSES,
                    evictions=_PLAN_EVICTIONS)
    info["approx_bytes"] = plan_cache_nbytes()
    return info


def plan_cache_nbytes() -> int:
    """Approximate resident bytes of all cached plans (caller holds no lock)."""
    with _PLAN_LOCK:
        plans = list(_PLAN_CACHE.values())
    return sum(plan.approx_nbytes() for plan in plans)


def clear_plan_cache() -> None:
    global _PLAN_HITS, _PLAN_MISSES, _PLAN_EVICTIONS
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _PLAN_HITS = _PLAN_MISSES = _PLAN_EVICTIONS = 0


def set_plan_cache_limit(limit: int) -> None:
    global _PLAN_CACHE_LIMIT, _PLAN_EVICTIONS
    if limit < 1:
        raise ValueError("plan cache limit must be >= 1")
    with _PLAN_LOCK:
        _PLAN_CACHE_LIMIT = int(limit)
        while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_EVICTIONS += 1


# Pull-style memory-ledger account for the plan LRU (repro.obs.memory is
# stdlib-only, so the import cannot cycle back here).
from ..obs.memory import default_ledger as _default_ledger  # noqa: E402

_default_ledger.register_provider("cache.conv_plans", plan_cache_nbytes)


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, plan: ConvPlan) -> np.ndarray:
    """Expand NCHW ``x`` into a fresh C-contiguous (n, c, kh, kw, oh, ow)
    buffer.

    The caller's ``reshape(plan.cols_shape)`` is a free view with the
    seed's (n, k, l) layout, which is the right-hand operand of the conv
    contraction ``matmul(w2, cols)``.
    """
    p, s = plan.pad, plan.stride
    if p:
        xp = np.zeros((plan.n, plan.c, plan.hp, plan.wp), dtype=x.dtype)
        xp[:, :, p:plan.h + p, p:plan.w + p] = x
    else:
        xp = x
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=plan.cols_shape6,
        strides=(s0, s1, s2, s3, s2 * s, s3 * s))
    return view.copy()


def col2im(dcols: np.ndarray, plan: ConvPlan) -> np.ndarray:
    """Scatter-add patch gradients back to an (n, c, h, w) canvas.

    Returns a freshly allocated array the caller may take ownership of.
    """
    d6 = dcols.reshape(plan.cols_shape6)
    dx = np.zeros((plan.n, plan.c, plan.h, plan.w), dtype=np.float32)
    for i, j, dst_h, dst_w, src_a, src_b in plan.slices:
        dx[:, :, dst_h, dst_w] += d6[:, :, i, j, src_a, src_b]
    return dx


# ----------------------------------------------------------------------
# Seed reference implementations (the test and benchmark oracle; do not
# optimize these)
# ----------------------------------------------------------------------
def im2col_reference(x: np.ndarray, kh: int, kw: int, stride: int,
                     pad: int) -> np.ndarray:
    """Seed im2col: expand NCHW ``x`` into (N, C*kh*kw, L) patch columns."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (s0, s1, s2, s3, s2 * stride, s3 * stride)
    cols = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return np.ascontiguousarray(cols).reshape(n, c * kh * kw, oh * ow)


def col2im_reference(dcols: np.ndarray, x_shape: tuple[int, ...], kh: int,
                     kw: int, stride: int, pad: int) -> np.ndarray:
    """Seed col2im: Python kh x kw loop over strided slice adds."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    dcols = dcols.reshape(n, c, kh, kw, oh, ow)
    dx = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx
