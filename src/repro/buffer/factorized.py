"""Factorized condensed storage: DREAM-style multi-formation buffer.

The paper's claim is accuracy per *byte* of on-device memory.  Multi-
formation storage (DREAM; Condensed Composite Memory; PECO) pushes that
further: keep the synthetic pixels at a reduced resolution factor ``f``
and decode them by upsampling, so the same byte budget holds ``f**2``
more images per class.

:class:`FactorizedSyntheticBuffer` stores every slot at
``(C, ceil(H/f), ceil(W/f))`` float32 and decodes on read with a
**bilinear upsample implemented as a fixed matmul**: per axis a constant
interpolation matrix ``U`` (each output row holds the two bilinear
weights of its source pixels — a sparse operator materialized densely,
tiny at these resolutions), applied separably as ``U_h @ p @ U_w.T``.
Because the decode is one fixed linear map, the matching loss
backpropagates through it exactly: the gradient with respect to the
stored pixels is the **upsample transpose** ``U_h.T @ g @ U_w`` — the
same scatter-of-contributions col2im performs for conv patches, here in
closed matrix form (:meth:`encode_grad`).  The condensation loop in
:mod:`repro.condensation.one_step` runs its FD and discrimination passes
on decoded views and pushes the combined gradient through
:meth:`encode_grad` onto the storage.

Initialization follows DREAM's ``mix`` scheme: each full-resolution byte
budget is packed with ``f**2`` *distinct* real samples, each resized down
into its own storage slot (:meth:`init_from_samples` encodes the real
images to storage resolution and then reuses the class-blocked packing of
the base buffer) — a far better start than noise and the reason the
factorized buffer can run ``f**2 x`` IpC at equal bytes.

Everything is bit-deterministic: the interpolation matrices are a pure
function of ``(out_size, in_size)`` and both decode and transpose are
single float32 matmuls over fixed layouts.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .buffer import SyntheticBuffer

__all__ = ["FactorizedSyntheticBuffer", "resize_matrix"]

#: (out_size, in_size) -> constant bilinear interpolation matrix, cached
#: for the lifetime of the process (a few KiB per distinct geometry).
_RESIZE_MATRICES: dict[tuple[int, int], np.ndarray] = {}


def resize_matrix(out_size: int, in_size: int) -> np.ndarray:
    """The ``(out_size, in_size)`` bilinear interpolation matrix.

    Row ``o`` holds the weights of the (at most two) source pixels that
    contribute to output pixel ``o`` under half-pixel-centre alignment
    (the ``align_corners=False`` convention): source coordinate
    ``(o + 0.5) * in/out - 0.5``, clamped to the valid range, split into
    its floor neighbour pair with linear weights.  Works in both
    directions — upsample (``out > in``) for the decode and downsample
    (``out < in``) for the ``mix`` initialization — and degenerates to the
    exact identity when ``out == in``.

    The returned array is cached and read-only; callers must not mutate it.
    """
    key = (int(out_size), int(in_size))
    cached = _RESIZE_MATRICES.get(key)
    if cached is not None:
        return cached
    out_size, in_size = key
    if out_size < 1 or in_size < 1:
        raise ValueError("resize_matrix sizes must be positive")
    matrix = np.zeros((out_size, in_size), dtype=np.float32)
    scale = in_size / out_size
    for o in range(out_size):
        src = (o + 0.5) * scale - 0.5
        src = min(max(src, 0.0), in_size - 1.0)
        i0 = int(math.floor(src))
        i1 = min(i0 + 1, in_size - 1)
        w1 = np.float32(src - i0)
        matrix[o, i0] += np.float32(1.0) - w1
        matrix[o, i1] += w1
    matrix.setflags(write=False)
    _RESIZE_MATRICES[key] = matrix
    return matrix


class FactorizedSyntheticBuffer(SyntheticBuffer):
    """Synthetic buffer storing pixels at ``1/f`` linear resolution.

    Parameters
    ----------
    num_classes / ipc / image_shape:
        As for :class:`SyntheticBuffer`; ``image_shape`` is the full
        *decoded* resolution the models consume.
    factor:
        Linear reduction factor ``f``: storage is
        ``(C, ceil(H/f), ceil(W/f))`` float32, so the per-slot payload is
        ``ceil(H/f) * ceil(W/f) / (H * W)`` of the full-resolution slot —
        exactly ``1/f**2`` when ``f`` divides both sides.  An integer
        from 1 to the image's smaller side; anything else raises
        ``ValueError``.
    """

    ledger_account = "buffer.synthetic.factorized"

    def __init__(self, num_classes: int, ipc: int,
                 image_shape: tuple[int, int, int], *,
                 factor: int = 2) -> None:
        c, h, w = (int(v) for v in image_shape)
        if isinstance(factor, bool) or not isinstance(factor, numbers.Integral):
            raise ValueError(f"factor must be an integer, got {factor!r}")
        if not 1 <= factor <= min(h, w):
            raise ValueError(f"factor must be in [1, {min(h, w)}] for "
                             f"{h}x{w} images, got {factor}")
        self.decode_factor = f = int(factor)
        self._storage_shape = (c, -(-h // f), -(-w // f))
        super().__init__(num_classes, ipc, (c, h, w))

    @property
    def storage_shape(self) -> tuple[int, ...]:
        return self._storage_shape

    # -- decode ------------------------------------------------------------
    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_h, U_w): the per-axis storage -> full-resolution upsamples."""
        _, h, w = self.image_shape
        _, sh, sw = self._storage_shape
        return resize_matrix(h, sh), resize_matrix(w, sw)

    def decode(self, payload: np.ndarray) -> np.ndarray:
        """Bilinear-upsample stored rows to ``image_shape`` pixels.

        ``U_h @ payload @ U_w.T`` with broadcast matmuls over the leading
        (row, channel) axes — one fixed linear map, bit-deterministic.
        """
        u_h, u_w = self._matrices()
        return np.matmul(u_h, np.matmul(payload, u_w.T))

    def encode_grad(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate a decoded-space gradient onto the storage.

        The exact transpose of :meth:`decode` — ``U_h.T @ grad @ U_w`` —
        i.e. each stored pixel accumulates the upsample-weighted
        contributions of every decoded pixel it fed (the matrix form of a
        col2im-style scatter).
        """
        u_h, u_w = self._matrices()
        return np.matmul(u_h.T, np.matmul(grad, u_w))

    def encode_images(self, x: np.ndarray) -> np.ndarray:
        """Resize full-resolution images down to storage resolution."""
        _, h, w = self.image_shape
        _, sh, sw = self._storage_shape
        d_h, d_w = resize_matrix(sh, h), resize_matrix(sw, w)
        return np.matmul(d_h, np.matmul(np.asarray(x, dtype=np.float32),
                                        d_w.T))

    # -- initialization ----------------------------------------------------
    def init_from_samples(self, x: np.ndarray, y: np.ndarray,
                          rng=None, noise_scale: float = 1.0) -> None:
        """DREAM ``mix`` initialization: pack ``f**2`` reals per budget.

        Real samples are resized down to storage resolution and then
        packed with the base class's class-blocked logic — distinct
        samples first, perturbed duplicates for shortfalls.  Run at
        ``f**2 x`` the full-resolution IpC (the equal-byte operating
        point), each full-resolution slot's byte budget ends up holding
        ``f**2`` distinct real crops.
        """
        super().init_from_samples(self.encode_images(x), y, rng=rng,
                                  noise_scale=noise_scale)

    # -- consumption -------------------------------------------------------
    def as_training_set(self) -> tuple[np.ndarray, np.ndarray]:
        """Decoded (images, labels) for model training."""
        return self.decode(self.images), self.labels.copy()

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        # The base class's load_state_dict validates this stamp, so a
        # factorized snapshot can never be silently reinterpreted at
        # another factor even when the raw shapes line up.
        state = super().state_dict()
        state["decode_factor"] = np.asarray(self.decode_factor,
                                            dtype=np.int64)
        return state
