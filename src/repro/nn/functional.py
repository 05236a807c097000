"""Neural-network functional operations built on the autodiff engine.

Contains the structured operations (convolution, pooling, normalization,
softmax-family) that the :mod:`repro.nn.layers` modules wrap.

The hot paths run on the kernel layer in :mod:`repro.nn.kernels`:
convolution fetches a cached :class:`~repro.nn.kernels.ConvPlan` (im2col
geometry, col2im scatter tables) and contracts its fresh column buffer with
plain ``np.matmul``, so every activation and gradient is C-contiguous NCHW
and the norm, ReLU and pooling ops after a conv never run on strided views.
Every op skips redundant ``astype(float32)`` copies and skips gradient work
for parents with ``requires_grad=False``.  Under
:func:`repro.nn.kernels.reference_mode` the ops dispatch to the frozen seed
implementations in :mod:`repro.nn.reference` instead (used by the
kernel-equivalence tests and the micro-benchmarks).
"""

from __future__ import annotations

import numpy as np

from . import kernels, reference
from .tensor import Tensor

__all__ = [
    "conv2d",
    "conv2d_lanes",
    "conv2d_lanes_shared",
    "instance_norm2d_lanes",
    "avg_pool_forward",
    "avg_pool_backward",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool2d",
    "instance_norm2d",
    "group_norm2d",
    "batch_norm2d",
    "softmax",
    "log_softmax",
    "l2_normalize",
    "linear",
    "dropout",
    "embedding_lookup",
]


def _f32(a: np.ndarray) -> np.ndarray:
    """Cast to float32 only when needed (avoids astype's unconditional copy)."""
    return a if a.dtype == np.float32 else a.astype(np.float32)


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x:
        Input of shape (N, C, H, W).
    weight:
        Kernel of shape (OC, C, KH, KW).
    bias:
        Optional per-output-channel bias of shape (OC,).
    """
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ic}")
    if not kernels.fast_kernels_enabled():
        return reference.conv2d(x, weight, bias, stride=stride, padding=padding)

    plan = kernels.get_conv_plan(n, c, h, w, kh, kw, stride, padding)
    xd = _f32(x.data)
    w2 = weight.data.reshape(oc, -1)                 # (OC, CKK)
    cols = kernels.im2col(xd, plan).reshape(plan.cols_shape)  # (N, CKK, L)
    out = np.matmul(w2, cols)                        # C-contiguous (N, OC, L)
    out = out.reshape(n, oc, plan.oh, plan.ow)
    if bias is not None:
        out += bias.data.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        nonlocal cols
        gflat = g.reshape(n, oc, plan.oh * plan.ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gflat.sum(axis=(0, 2)), own=True)
        if weight.requires_grad:
            dw = np.matmul(gflat, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(_f32(dw).reshape(weight.shape), own=True)
        if x.requires_grad:
            dcols = np.matmul(w2.T, gflat)           # (N, CKK, L)
            x._accumulate(kernels.col2im(dcols, plan), own=True)
        # The columns are dead once consumed: free them now rather than
        # when the whole graph goes, so the layers below can reuse the
        # memory during the rest of the backward pass.
        cols = None

    return Tensor._make(_f32(out), parents, "conv2d", backward)


# ----------------------------------------------------------------------
# Lane-grouped convolution / normalization (fused ±ε finite differences)
# ----------------------------------------------------------------------
# The Eq. 7 matcher's two perturbed input-gradient passes run the *same*
# network graph with two different parameter sets.  The ops below evaluate
# both "lanes" as one batch-stacked pass: lane ``t`` occupies batch rows
# ``[t*n, (t+1)*n)`` of a composite and is transformed by its own weight
# arrays.  They are plain ndarray-in/ndarray-out functions returning a
# ``(result, backward)`` pair — the fused evaluator chains the closures by
# hand instead of paying Tensor-graph bookkeeping per node; weights are
# plain arrays because the fused passes are input-gradient only.
#
# Bit-identity with the sequential per-lane evaluation holds because every
# op is per-sample: im2col and col2im touch each batch row on its own, and
# ``matmul`` of a C-contiguous ``(n, k, l)`` stack runs one GEMM per
# sample, so a lane's rows of a C-contiguous composite see exactly the
# operands the sequential pass sees.  The matcher still byte-compares the
# fused result against the sequential one on first use per signature.
def _lane_conv(plan2, cols_list, weights, biases, n, oc):
    """Per-lane ``matmul(w2, cols)`` into lane slices of one C-contiguous
    ``(lanes*n, oc, oh, ow)`` composite, plus the per-lane biases, and the
    backward mapping the composite output gradient to the composite input
    gradient through a single ``(lanes*n)``-row col2im (``plan2`` is the
    composite's conv plan)."""
    lanes = len(weights)
    l = plan2.oh * plan2.ow
    w2s = [wt.reshape(oc, -1) for wt in weights]
    out = np.empty((lanes * n, oc, l), dtype=np.float32)
    for t in range(lanes):
        np.matmul(w2s[t], cols_list[t], out=out[t * n:(t + 1) * n])
    out4 = out.reshape(lanes * n, oc, plan2.oh, plan2.ow)
    for t in range(lanes):
        if biases[t] is not None:
            out4[t * n:(t + 1) * n] += biases[t].reshape(1, oc, 1, 1)

    def backward(g: np.ndarray) -> np.ndarray:
        dcols2 = np.empty(plan2.cols_shape, dtype=np.float32)
        for t in range(lanes):
            np.matmul(w2s[t].T, g[t * n:(t + 1) * n].reshape(n, oc, l),
                      out=dcols2[t * n:(t + 1) * n])
        return kernels.col2im(dcols2, plan2)

    return out4, backward


def conv2d_lanes_shared(x: np.ndarray, weights, biases, *, stride: int = 1,
                        padding: int = 0):
    """First-layer lane conv: every lane convolves the *same* input batch.

    Returns ``(out4, backward)`` where ``out4`` is the ``(lanes*n, ...)``
    composite ndarray and ``backward(g)`` maps the composite output gradient
    to the composite input gradient (lane ``t`` in rows ``[t*n, (t+1)*n)``).
    One im2col of ``x`` serves every lane.
    """
    lanes = len(weights)
    n, c, h, w = x.shape
    oc, ic, kh, kw = weights[0].shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ic}")
    plan = kernels.get_conv_plan(n, c, h, w, kh, kw, stride, padding)
    plan2 = kernels.get_conv_plan(lanes * n, c, h, w, kh, kw, stride, padding)
    cols = kernels.im2col(_f32(x), plan).reshape(plan.cols_shape)
    return _lane_conv(plan2, [cols] * lanes, weights, biases, n, oc)


def conv2d_lanes(x: np.ndarray, weights, biases, *, stride: int = 1,
                 padding: int = 0):
    """Deeper-layer lane conv: lane ``t``'s weights applied to its batch
    rows of the composite input; returns ``(out4, backward)`` like
    :func:`conv2d_lanes_shared`.  Input-gradient only (the perturbed
    weights are plain arrays, mirroring ``frozen_parameters`` in the
    sequential FD passes).  One composite im2col serves every lane: the
    patch expansion is batch-row independent."""
    lanes = len(weights)
    nt, c, h, w = x.shape
    n = nt // lanes
    oc, ic, kh, kw = weights[0].shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ic}")
    plan2 = kernels.get_conv_plan(nt, c, h, w, kh, kw, stride, padding)
    comp_cols = kernels.im2col(_f32(x), plan2).reshape(plan2.cols_shape)
    return _lane_conv(
        plan2, [comp_cols[t * n:(t + 1) * n] for t in range(lanes)],
        weights, biases, n, oc)


def instance_norm2d_lanes(x: np.ndarray, gammas, betas, eps: float = 1e-5):
    """Lane-grouped instance normalization: lane ``t`` of the composite is
    normalized with its own gamma/beta arrays; returns ``(out, backward)``.
    Per-sample reductions run on C-contiguous lane slices of the composite,
    exactly the operands of the sequential pass; results are written
    straight into lane slices of the composite output."""
    lanes = len(gammas)
    nt, c = x.shape[0], x.shape[1]
    n = nt // lanes
    axes = (2, 3)
    xd = _f32(x)
    out = np.empty(xd.shape, dtype=np.float32)
    lane_ctx = []
    for t in range(lanes):
        xhat, var = _norm_stats(xd[t * n:(t + 1) * n], axes)
        inv_std = 1.0 / np.sqrt(var + np.float32(eps))
        xhat *= inv_std
        gamma_r = (gammas[t].reshape(1, c, 1, 1)
                   if gammas[t] is not None else None)
        beta_r = (betas[t].reshape(1, c, 1, 1)
                  if betas[t] is not None else None)
        lane = out[t * n:(t + 1) * n]
        if gamma_r is not None:
            np.multiply(xhat, gamma_r, out=lane)
            if beta_r is not None:
                lane += beta_r
        elif beta_r is not None:
            np.add(xhat, beta_r, out=lane)
        else:
            np.copyto(lane, xhat)
        lane_ctx.append((xhat, inv_std, gamma_r))

    def backward(g: np.ndarray) -> np.ndarray:
        dx = np.empty(g.shape, dtype=np.float32)
        for t, (xhat, inv_std, gamma_r) in enumerate(lane_ctx):
            gl = g[t * n:(t + 1) * n]
            gy = gl * gamma_r if gamma_r is not None else gl
            _norm_backward(gy, xhat, inv_std, axes, out=dx[t * n:(t + 1) * n])
        return dx

    return out, backward


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def avg_pool_forward(xd: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping k x k average of NCHW ``xd`` as a sum of the k*k
    strided tap slices: a fresh C-contiguous (n, c, h/k, w/k) array."""
    taps = [xd[:, :, i::k, j::k] for i in range(k) for j in range(k)]
    out = taps[0] + taps[1] if len(taps) > 1 else taps[0].copy()
    for tap in taps[2:]:
        out += tap
    out *= np.float32(1.0 / (k * k))
    return out


def avg_pool_backward(g: np.ndarray, k: int) -> np.ndarray:
    """Input gradient of :func:`avg_pool_forward`: each output gradient,
    scaled by 1/(k*k), spread over its window (C-contiguous NCHW)."""
    n, c, oh, ow = g.shape
    scaled = g * np.float32(1.0 / (k * k))
    out = np.empty((n, c, oh * k, ow * k), dtype=np.float32)
    for i in range(k):
        for j in range(k):
            out[:, :, i::k, j::k] = scaled
    return out


def avg_pool2d(x: Tensor, kernel_size: int = 2) -> Tensor:
    """Non-overlapping average pooling; spatial dims must divide evenly."""
    if not kernels.fast_kernels_enabled():
        return reference.avg_pool2d(x, kernel_size)
    k = int(kernel_size)
    h, w = x.shape[2], x.shape[3]
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: spatial dims ({h},{w}) not divisible by {k}")
    out = avg_pool_forward(_f32(x.data), k)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(avg_pool_backward(g, k), own=True)

    return Tensor._make(out, (x,), "avg_pool2d", backward)


def max_pool2d(x: Tensor, kernel_size: int = 2) -> Tensor:
    """Non-overlapping max pooling; spatial dims must divide evenly.

    Retains only compact per-window argmax indices for the backward pass
    (the seed implementation kept a full-resolution boolean mask plus tie
    counts alive for the lifetime of the graph).  Ties route their entire
    gradient to the first maximal element, like torch; the seed's
    split-among-ties behaviour lives on in :func:`repro.nn.reference.max_pool2d`.
    """
    if not kernels.fast_kernels_enabled():
        return reference.max_pool2d(x, kernel_size)
    k = int(kernel_size)
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"max_pool2d: spatial dims ({h},{w}) not divisible by {k}")
    oh, ow = h // k, w // k
    kk = k * k
    idx_dtype = np.uint8 if kk <= 255 else np.int32
    windows = np.ascontiguousarray(
        x.data.reshape(n, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(n, c, oh, ow, kk)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    # Compact retention: one small integer per output pixel.
    idx = idx.astype(idx_dtype)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            g32 = _f32(np.asarray(g))
            buf = np.zeros((n, c, oh, ow, kk), dtype=np.float32)
            np.put_along_axis(buf, idx[..., None].astype(np.int64),
                              g32[..., None], axis=-1)
            grad = np.ascontiguousarray(
                buf.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
            ).reshape(n, c, h, w)
            x._accumulate(grad, own=True)

    return Tensor._make(_f32(out), (x,), "max_pool2d", backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Normalization (fused forward/backward for speed)
# ----------------------------------------------------------------------
def _norm_backward(g, xhat, inv_std, axes, out=None):
    """Gradient of y = xhat for normalization over ``axes``.

    In-place formulation of the seed's fused expression, into ``out`` (a
    composite lane slice) or a fresh array the caller may take ownership
    of.  Every step is elementwise or reduces over ``g``/``xhat``, so the
    destination cannot perturb the float32 summation order.
    """
    m = 1
    for a in axes:
        m *= xhat.shape[a]
    sum_g = g.sum(axis=axes, keepdims=True)
    sum_gx = (g * xhat).sum(axis=axes, keepdims=True)
    t = np.multiply(g, m, out=out)
    t -= sum_g
    t -= xhat * sum_gx
    t *= inv_std * np.float32(1.0 / m)
    return t


def _norm_stats(x2d: np.ndarray, axes):
    """Mean/inv-std/xhat over ``axes`` with one fewer temporary than np.var."""
    mean = x2d.mean(axis=axes, keepdims=True)
    xc = x2d - mean
    var = np.mean(xc * xc, axis=axes, keepdims=True)
    return xc, var


def _norm_param_grads(g, xhat, beta, gamma) -> None:
    """Accumulate dbeta/dgamma for a norm op."""
    if beta is not None and beta.requires_grad:
        beta._accumulate(_f32(g.sum(axis=(0, 2, 3))), own=True)
    if gamma is not None and gamma.requires_grad:
        gamma._accumulate(_f32((g * xhat).sum(axis=(0, 2, 3))), own=True)


def instance_norm2d(x: Tensor, gamma: Tensor | None = None,
                    beta: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Instance normalization over (H, W) per sample and channel.

    This is the normalization used by the ConvNet backbone in the dataset
    condensation literature (DC/DSA/DM) and hence in DECO.
    """
    if not kernels.fast_kernels_enabled():
        return reference.instance_norm2d(x, gamma, beta, eps=eps)
    axes = (2, 3)
    xhat, var = _norm_stats(_f32(x.data), axes)
    inv_std = 1.0 / np.sqrt(var + np.float32(eps))
    xhat *= inv_std
    c = x.shape[1]
    gamma_r = gamma.data.reshape(1, c, 1, 1) if gamma is not None else None
    beta_r = beta.data.reshape(1, c, 1, 1) if beta is not None else None
    if gamma_r is not None:
        out = xhat * gamma_r
        if beta_r is not None:
            out += beta_r
    elif beta_r is not None:
        out = xhat + beta_r
    else:
        out = xhat

    parents = [x]
    if gamma is not None:
        parents.append(gamma)
    if beta is not None:
        parents.append(beta)

    def backward(g: np.ndarray) -> None:
        _norm_param_grads(g, xhat, beta, gamma)
        if x.requires_grad:
            gy = g * gamma_r if gamma_r is not None else g
            x._accumulate(_f32(_norm_backward(gy, xhat, inv_std, axes)),
                          own=True)

    return Tensor._make(_f32(out), parents, "instance_norm2d", backward)


def group_norm2d(x: Tensor, num_groups: int, gamma: Tensor | None = None,
                 beta: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Group normalization over (C/G, H, W) within each of ``num_groups``."""
    if not kernels.fast_kernels_enabled():
        return reference.group_norm2d(x, num_groups, gamma, beta, eps=eps)
    n, c, h, w = x.shape
    if c % num_groups:
        raise ValueError(f"group_norm2d: {c} channels not divisible by {num_groups} groups")
    xg = _f32(x.data).reshape(n, num_groups, c // num_groups, h, w)
    axes = (2, 3, 4)
    xhat_g, var = _norm_stats(xg, axes)
    inv_std = 1.0 / np.sqrt(var + np.float32(eps))
    xhat_g *= inv_std
    xhat = xhat_g.reshape(n, c, h, w)
    gamma_r = gamma.data.reshape(1, c, 1, 1) if gamma is not None else None
    beta_r = beta.data.reshape(1, c, 1, 1) if beta is not None else None
    if gamma_r is not None:
        out = xhat * gamma_r
        if beta_r is not None:
            out += beta_r
    elif beta_r is not None:
        out = xhat + beta_r
    else:
        out = xhat

    parents = [x]
    if gamma is not None:
        parents.append(gamma)
    if beta is not None:
        parents.append(beta)

    def backward(g: np.ndarray) -> None:
        _norm_param_grads(g, xhat, beta, gamma)
        if x.requires_grad:
            gy = g * gamma_r if gamma_r is not None else g
            gyg = gy.reshape(n, num_groups, c // num_groups, h, w)
            dx = _norm_backward(gyg, xhat_g, inv_std, axes)
            x._accumulate(_f32(dx).reshape(x.shape), own=True)

    return Tensor._make(_f32(out), parents, "group_norm2d", backward)


def batch_norm2d(x: Tensor, gamma: Tensor | None = None,
                 beta: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Training-mode batch normalization over (N, H, W) per channel."""
    if not kernels.fast_kernels_enabled():
        return reference.batch_norm2d(x, gamma, beta, eps=eps)
    axes = (0, 2, 3)
    xhat, var = _norm_stats(_f32(x.data), axes)
    inv_std = 1.0 / np.sqrt(var + np.float32(eps))
    xhat *= inv_std
    c = x.shape[1]
    gamma_r = gamma.data.reshape(1, c, 1, 1) if gamma is not None else None
    beta_r = beta.data.reshape(1, c, 1, 1) if beta is not None else None
    if gamma_r is not None:
        out = xhat * gamma_r
        if beta_r is not None:
            out += beta_r
    elif beta_r is not None:
        out = xhat + beta_r
    else:
        out = xhat

    parents = [x]
    if gamma is not None:
        parents.append(gamma)
    if beta is not None:
        parents.append(beta)

    def backward(g: np.ndarray) -> None:
        _norm_param_grads(g, xhat, beta, gamma)
        if x.requires_grad:
            gy = g * gamma_r if gamma_r is not None else g
            x._accumulate(_f32(_norm_backward(gy, xhat, inv_std, axes)), own=True)

    return Tensor._make(_f32(out), parents, "batch_norm2d", backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax with a fused backward pass."""
    if not kernels.fast_kernels_enabled():
        return reference.log_softmax(x, axis=axis)
    xd = _f32(x.data)
    out = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(out)
    out -= np.log(e.sum(axis=axis, keepdims=True))
    softmax_vals = np.exp(out)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            grad = g - softmax_vals * g.sum(axis=axis, keepdims=True)
            x._accumulate(_f32(grad), own=True)

    return Tensor._make(out, (x,), "log_softmax", backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax with a fused backward pass."""
    if not kernels.fast_kernels_enabled():
        return reference.softmax(x, axis=axis)
    xd = _f32(x.data)
    shifted = xd - xd.max(axis=axis, keepdims=True)
    out = np.exp(shifted, out=shifted)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            x._accumulate(_f32(out * (g - dot)), own=True)

    return Tensor._make(out, (x,), "softmax", backward)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize vectors to unit L2 norm along ``axis`` (for Eq. 8 features)."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with (out, in)-shaped weight."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    return x * Tensor(mask)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup with scatter-add gradients (used by prototype models)."""
    idx = np.asarray(indices, dtype=np.int64)
    return table[idx]
