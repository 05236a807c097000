"""Convolution data movement: im2col and col2im.

A conv is a plain ``np.matmul`` of its weight against a C-contiguous
``(n, c*kh*kw, oh*ow)`` column buffer (:func:`im2col`), and its input
gradient is the patch gradients of the output gradient scattered back
onto the image (:func:`col2im`).  Both kernels move data in long
contiguous runs: numpy runs a strided copy or add over rows of 8-16
floats several times slower per element than a contiguous one, and those
are the row lengths of the ConvNet's 8-32 px feature maps.

* :func:`im2col` makes ``kw`` zero-padded, column-shifted copies of the
  input, ``shifted[j][y, b] = padded[y, j + s*b]``.  Tap ``(i, j)`` then
  reads rows ``i, i+s, ...`` of ``shifted[j]``, and at stride 1 that
  ``(oh, ow)`` block is one contiguous run, so the column buffer is a
  single strided-view copy.
* :func:`col2im` zero-pads each ``(oh, ow)`` map of the output gradient
  to the padded input's row width ``R = w + 2*pad`` (and to a whole
  number of padded input maps), channel by channel with the samples end
  to end.  One tap at a time, a matmul by that tap's ``(c, oc)`` weight
  slice gives the tap's patch gradients, which land at flat offsets
  ``(i + s*a)*R + j + s*b`` of each map on a row-padded canvas laid out
  the same way: one run for the whole batch (contiguous at stride 1),
  added while the patch gradients are still in cache.  The taps are
  added in the seed's order, and the canvas is cropped once.

Both outputs are byte-identical to the seed kernels (the tests' oracle,
``tests/nn/reference.py``) for every stride and padding (col2im: for every
kernel but a single-channel 1x1 one, whose one-row products numpy runs as
gemv, which sums in an order that depends on the row length).  im2col
only copies.  In col2im each patch gradient is the same dot product over the
output channels as the seed's ``w2.T @ g``, every real one lands on the
seed's pixel in the seed's tap order, and the zero padding contributes
``±0`` (finite weights), wherever it lands; adding ``±0`` leaves every
float unchanged that a sum starting at ``+0`` can reach (such a sum is
never ``-0``).  The geometry is a few integer operations per call, so
nothing is cached.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_out_size", "im2col", "col2im"]


def conv_out_size(h: int, w: int, kh: int, kw: int, stride: int,
                  pad: int) -> tuple[int, int]:
    """Output height and width of a ``(kh, kw)`` conv over ``(h, w)``."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel ({kh},{kw}) too large for padded input "
                         f"({h + 2 * pad},{w + 2 * pad})")
    return oh, ow


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pad: int) -> np.ndarray:
    """Expand NCHW ``x`` into a fresh C-contiguous ``(n, c*kh*kw, oh*ow)``
    column buffer, the right-hand operand of ``matmul(w2, cols)``."""
    n, c, h, w = x.shape
    oh, ow = conv_out_size(h, w, kh, kw, stride, pad)
    s, p = stride, pad
    shifted = np.zeros((n, c, kw, h + 2 * p, ow), dtype=x.dtype)
    for j in range(kw):
        # output columns b whose input column j + s*b - p is inside x
        b0 = max(0, -(-(p - j) // s))
        b1 = min(ow, (w - 1 + p - j) // s + 1)
        if b0 < b1:
            x0 = j + s * b0 - p
            shifted[:, :, j, p:p + h, b0:b1] = \
                x[:, :, :, x0:x0 + s * (b1 - b0 - 1) + 1:s]
    t0, t1, t2, t3, t4 = shifted.strides
    cols = np.lib.stride_tricks.as_strided(
        shifted, shape=(n, c, kh, kw, oh, ow),
        strides=(t0, t1, t3, t2, t3 * s, t4))
    return np.ascontiguousarray(cols).reshape(n, c * kh * kw, oh * ow)


def col2im(g: np.ndarray, weight: np.ndarray, x_shape: tuple[int, ...],
           stride: int, pad: int) -> np.ndarray:
    """The input gradient of a conv: the patch gradients of the
    ``(n, oc, oh, ow)`` output gradient ``g`` under ``weight``,
    scatter-added back to a fresh C-contiguous ``(n, c, h, w)`` array the
    caller may take ownership of.

    ``weight`` is ``(oc, c, kh, kw)``, or ``(lanes, oc, c, kh, kw)`` for
    a lane-stacked conv whose lane ``t`` owns batch rows
    ``[t*n/lanes, (t+1)*n/lanes)``.
    """
    n, oc, oh, ow = g.shape
    _, c, h, w = x_shape
    kh, kw = weight.shape[-2:]
    lanes = weight.shape[0] if weight.ndim == 5 else 1
    s, p, r = stride, pad, w + 2 * pad
    rows = max(oh, -(-(h + 2 * p) // s))  # s*rows rows hold a padded map
    width = n * rows * r
    # per output channel, the samples' maps end to end, each zero-padded
    # from (oh, ow) to (rows, r)
    spread = np.zeros((oc, n, rows, r), dtype=np.float32)
    spread[:, :, :oh, :ow] = g.transpose(1, 0, 2, 3)
    spread = spread.reshape(oc, width)
    # One matmul per tap keeps its patch gradients in cache.  A
    # single-channel conv takes every tap in one matmul instead: numpy
    # computes a one-row product with gemv, which sums in another order
    # than the seed's gemm.
    group = 1 if c > 1 else kh * kw
    # per lane and group of taps, the (group*c, oc) weight slice
    taps = np.ascontiguousarray(np.moveaxis(
        weight.reshape((lanes,) + weight.shape[-4:]), (3, 4, 1), (1, 2, 4)))
    taps = taps.reshape(lanes, kh * kw // group, group * c, oc)
    lane_cols = [slice(t * width // lanes, (t + 1) * width // lanes)
                 for t in range(lanes)]
    patch = np.empty((group * c, width), dtype=np.float32)
    # per input channel, s*rows rows of each sample's map, end to end;
    # kh more rows hold every offset the last map's runs reach
    size = s * c * width
    canvas = np.zeros(size + kh * r, dtype=np.float32)
    for first in range(0, kh * kw, group):
        for t, cols in enumerate(lane_cols):
            np.matmul(taps[t, first // group], spread[:, cols],
                      out=patch[:, cols])
        for u in range(group):
            i, j = divmod(first + u, kw)
            start = i * r + j
            dst = canvas[start:start + size:s].reshape(c, width)
            dst += patch[u * c:(u + 1) * c]
    maps = canvas[:size].reshape(c, n, s * rows, r)
    return np.ascontiguousarray(
        maps[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3))
