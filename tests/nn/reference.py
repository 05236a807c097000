"""Seed (pre-optimization) implementations of the structured nn ops: the
test oracle.

These are the verbatim op bodies the repository shipped with before the
kernel-level overhaul (contiguous-run im2col/col2im, copy elimination).
They live with the tests, outside the runtime package.
``tests/nn/test_kernels.py`` and
``tests/nn/test_conv_block.py`` assert that the ops of
:mod:`repro.nn.functional` match them (forward and backward) to 1e-5
across a grid of shapes, strides and paddings, and that the kernels of
:mod:`repro.nn.kernels` match the seed :func:`im2col`/:func:`col2im` byte
for byte; ``benchmarks/micro`` times the fast ops against them.

Do not optimize this module; it is the frozen baseline.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "avg_pool2d",
    "instance_norm2d",
    "softmax",
    "log_softmax",
]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
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


def col2im(dcols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
           stride: int, pad: int) -> np.ndarray:
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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Seed conv2d: per-call im2col copies + einsum path search per call."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ic}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1

    cols = im2col(x.data, kh, kw, stride, padding)  # (N, CKK, L)
    w2 = weight.data.reshape(oc, -1)  # (OC, CKK)
    out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    out = out.reshape(n, oc, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        gflat = g.reshape(n, oc, oh * ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gflat.sum(axis=(0, 2)))
        if weight.requires_grad:
            dw = np.einsum("nol,nkl->ok", gflat, cols, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if x.requires_grad:
            dcols = np.einsum("ok,nol->nkl", w2, gflat, optimize=True)
            x._accumulate(col2im(dcols, x.shape, kh, kw, stride, padding))

    return Tensor._make(out.astype(np.float32), parents, "conv2d", backward)


def avg_pool2d(x: Tensor, kernel_size: int = 2) -> Tensor:
    """Seed average pooling: unconditional gradient computation."""
    k = int(kernel_size)
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: spatial dims ({h},{w}) not divisible by {k}")
    oh, ow = h // k, w // k
    reshaped = x.data.reshape(n, c, oh, k, ow, k)
    out = reshaped.mean(axis=(3, 5))

    def backward(g: np.ndarray) -> None:
        grad = np.repeat(np.repeat(g, k, axis=2), k, axis=3) / (k * k)
        x._accumulate(grad.astype(np.float32))

    return Tensor._make(out.astype(np.float32), (x,), "avg_pool2d", backward)


def _norm_backward(g, xhat, inv_std, axes):
    """Seed normalization backward for y = xhat over ``axes``."""
    m = 1
    for a in axes:
        m *= xhat.shape[a]
    sum_g = g.sum(axis=axes, keepdims=True)
    sum_gx = (g * xhat).sum(axis=axes, keepdims=True)
    return (inv_std / m) * (m * g - sum_g - xhat * sum_gx)


def instance_norm2d(x: Tensor, gamma: Tensor | None = None,
                    beta: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Seed instance normalization."""
    axes = (2, 3)
    mean = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = xhat
    c = x.shape[1]
    if gamma is not None:
        out = out * gamma.data.reshape(1, c, 1, 1)
    if beta is not None:
        out = out + beta.data.reshape(1, c, 1, 1)

    parents = [x]
    if gamma is not None:
        parents.append(gamma)
    if beta is not None:
        parents.append(beta)

    def backward(g: np.ndarray) -> None:
        if beta is not None and beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2, 3)))
        if gamma is not None and gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gy = g * gamma.data.reshape(1, c, 1, 1) if gamma is not None else g
            x._accumulate(_norm_backward(gy, xhat, inv_std, axes).astype(np.float32))

    return Tensor._make(out.astype(np.float32), parents, "instance_norm2d", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Seed log-softmax: unconditional gradient computation."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    softmax_vals = np.exp(out)

    def backward(g: np.ndarray) -> None:
        x._accumulate((g - softmax_vals * g.sum(axis=axis, keepdims=True)).astype(np.float32))

    return Tensor._make(out.astype(np.float32), (x,), "log_softmax", backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Seed softmax: unconditional gradient computation."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * out).sum(axis=axis, keepdims=True)
        x._accumulate((out * (g - dot)).astype(np.float32))

    return Tensor._make(out.astype(np.float32), (x,), "softmax", backward)
