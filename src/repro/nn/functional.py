"""Neural-network functional operations built on the autodiff engine.

Contains the structured operations the ConvNet backbone is made of
(convolution, the fused Conv -> InstanceNorm -> ReLU -> AvgPool block,
average pooling, instance normalization, the softmax family, linear) that
the :mod:`repro.nn.layers` modules wrap.

The hot paths run on the kernel layer in :mod:`repro.nn.kernels`:
convolution contracts a fresh im2col column buffer with plain
``np.matmul`` and scatters its input gradient back with col2im, so every
activation and gradient is C-contiguous NCHW and the norm, ReLU and
pooling ops after a conv never run on strided views.
Every op skips redundant ``astype(float32)`` copies and skips gradient work
for parents with ``requires_grad=False``.  The frozen seed implementations
in ``tests/nn/reference.py`` are the tests' oracle for these ops.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor

__all__ = [
    "conv2d",
    "conv_block",
    "avg_pool_forward",
    "avg_pool_backward",
    "avg_pool2d",
    "instance_norm2d",
    "softmax",
    "log_softmax",
    "l2_normalize",
    "linear",
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

    oh, ow = kernels.conv_out_size(h, w, kh, kw, stride, padding)
    w2 = weight.data.reshape(oc, -1)                 # (OC, CKK)
    cols = kernels.im2col(_f32(x.data), kh, kw, stride, padding)  # (N, CKK, L)
    out = np.matmul(w2, cols)                        # C-contiguous (N, OC, L)
    out = out.reshape(n, oc, oh, ow)
    if bias is not None:
        out += bias.data.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        nonlocal cols
        gflat = g.reshape(n, oc, oh * ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gflat.sum(axis=(0, 2)), own=True)
        if weight.requires_grad:
            dw = np.matmul(gflat, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(_f32(dw).reshape(weight.shape), own=True)
        if x.requires_grad:
            x._accumulate(kernels.col2im(g, weight.data, x.shape, stride,
                                         padding), own=True)
        # The columns are dead once consumed: free them now rather than
        # when the whole graph goes, so the layers below can reuse the
        # memory during the rest of the backward pass.
        cols = None

    return Tensor._make(_f32(out), parents, "conv2d", backward)


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
    k = int(kernel_size)
    h, w = x.shape[2], x.shape[3]
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: spatial dims ({h},{w}) not divisible by {k}")
    out = avg_pool_forward(_f32(x.data), k)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(avg_pool_backward(g, k), own=True)

    return Tensor._make(out, (x,), "avg_pool2d", backward)


# ----------------------------------------------------------------------
# Normalization (fused forward/backward for speed)
# ----------------------------------------------------------------------
def _norm_backward(g, xhat, inv_std, axes, *, donate=None):
    """Gradient of y = xhat for normalization over ``axes``.

    In-place formulation of the seed's fused expression, into a fresh
    array the caller may take ownership of.  A caller done with ``g`` and
    holding one more dead array of its shape passes that array as
    ``donate``: the result is then written over ``g`` and the temporaries
    over ``donate``, with the same elementwise arithmetic.
    """
    m = 1
    for a in axes:
        m *= xhat.shape[a]
    sum_g = g.sum(axis=axes, keepdims=True)
    sum_gx = np.multiply(g, xhat, out=donate).sum(axis=axes, keepdims=True)
    t = np.multiply(g, m, out=None if donate is None else g)
    t -= sum_g
    t -= np.multiply(xhat, sum_gx, out=donate)
    t *= inv_std * np.float32(1.0 / m)
    return t


def _norm_stats(x2d: np.ndarray, axes, *, donate: bool = False):
    """Mean/inv-std/xhat over ``axes`` with one fewer temporary than np.var.

    ``donate=True`` lets the squared deviations overwrite ``x2d``, which
    the caller no longer needs.
    """
    mean = x2d.mean(axis=axes, keepdims=True)
    xc = x2d - mean
    var = np.mean(np.multiply(xc, xc, out=x2d if donate else None),
                  axis=axes, keepdims=True)
    return xc, var


def _per_lane(fn, lanes: int, *arrays) -> np.ndarray:
    """``fn`` of each lane's batch rows of ``arrays``, stacked on a leading
    lane axis (``lanes == 1``: ``fn`` of the arrays themselves).

    Lane ``t`` owns rows ``[t*m, (t+1)*m)``; a row slice of a C-contiguous
    array is C-contiguous, so each lane reduces exactly the operands a
    single-lane call on those rows would.
    """
    if lanes == 1:
        return _f32(fn(*arrays))
    m = len(arrays[0]) // lanes
    return np.stack([_f32(fn(*(a[t * m:(t + 1) * m] for a in arrays)))
                     for t in range(lanes)])


def _norm_param_grads(g, xhat, beta, gamma, lanes: int = 1,
                      donate=None) -> None:
    """Accumulate dbeta/dgamma for a norm op (per lane when the affine
    parameters carry a leading lane axis).  ``donate``, a dead array of
    ``g``'s shape, receives the ``g * xhat`` product."""
    if beta is not None and beta.requires_grad:
        beta._accumulate(_per_lane(lambda g: g.sum(axis=(0, 2, 3)), lanes, g),
                         own=True)
    if gamma is not None and gamma.requires_grad:
        if donate is None:
            donate = np.empty_like(g)
        gamma._accumulate(_per_lane(
            lambda g, xh, d: np.multiply(g, xh, out=d).sum(axis=(0, 2, 3)),
            lanes, g, xhat, donate), own=True)


def instance_norm2d(x: Tensor, gamma: Tensor | None = None,
                    beta: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Instance normalization over (H, W) per sample and channel.

    This is the normalization used by the ConvNet backbone in the dataset
    condensation literature (DC/DSA/DM) and hence in DECO.
    """
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


# ----------------------------------------------------------------------
# ConvNet block
# ----------------------------------------------------------------------
def _lane_matmul(a: np.ndarray, b: np.ndarray, lanes: int) -> np.ndarray:
    """``np.matmul(a[t], rows of b for lane t)`` for every lane, into one
    C-contiguous batch-stacked result (``lanes == 1``: ``a[0] @ b``)."""
    if lanes == 1:
        return np.matmul(a[0], b)
    m = len(b) // lanes
    out = np.empty((len(b), a.shape[1], b.shape[2]), dtype=np.float32)
    for t in range(lanes):
        np.matmul(a[t], b[t * m:(t + 1) * m], out=out[t * m:(t + 1) * m])
    return out


def conv_block(x: Tensor, weight: Tensor, bias: Tensor | None,
               gamma: Tensor | None, beta: Tensor | None, *,
               stride: int = 1, padding: int = 1, eps: float = 1e-5,
               pool: int = 2) -> Tensor:
    """One ConvNet block, Conv -> InstanceNorm -> ReLU -> AvgPool, as a
    single node with one backward closure.

    The arithmetic is the per-layer ops' (:func:`conv2d`,
    :func:`instance_norm2d`, ``Tensor.relu``, :func:`avg_pool2d`) call for
    call, so the output and every gradient are byte-identical to the
    four-node chain; the block only keeps fewer activations alive.  The
    ReLU runs in place on the norm output, and its backward mask is taken
    from that output.

    The parameters may carry a leading lane axis (``weight`` of shape
    ``(T, OC, C, KH, KW)``, the others ``(T, OC)``): lane ``t``
    transforms batch rows ``[t*n, (t+1)*n)`` of ``x`` with its own
    ``np.matmul`` and affine, so a ``T``-lane call is byte-identical to
    ``T`` single-lane calls on the row blocks.
    """
    lanes = weight.shape[0] if weight.ndim == 5 else 1
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape[-4:]
    if ic != c:
        raise ValueError(f"conv_block channel mismatch: input has {c}, kernel expects {ic}")
    if n % lanes:
        raise ValueError(f"conv_block: batch {n} does not split into {lanes} lanes")
    k = int(pool)
    oh, ow = kernels.conv_out_size(h, w, kh, kw, stride, padding)
    if oh % k or ow % k:
        raise ValueError(f"conv_block: conv output ({oh},{ow}) "
                         f"not divisible by pool {k}")

    def lane_view(a: np.ndarray) -> np.ndarray:
        """A batch-stacked array as (lanes, rows per lane, ...)."""
        return a.reshape((lanes, n // lanes) + a.shape[1:])

    def lane_param(p: Tensor) -> np.ndarray:
        """A per-channel parameter broadcast over lane_view's NCHW axes."""
        return p.data.reshape(lanes, 1, -1, 1, 1)

    # conv2d
    w2 = weight.data.reshape(lanes, oc, -1)          # (T, OC, CKK)
    cols = kernels.im2col(_f32(x.data), kh, kw, stride, padding)
    z = _lane_matmul(w2, cols, lanes).reshape(n, oc, oh, ow)
    if bias is not None:
        np.add(lane_view(z), lane_param(bias), out=lane_view(z))
    # instance_norm2d; z is dead once centred, so it holds the squared
    # deviations and then the block's activation y
    axes = (2, 3)
    xhat, var = _norm_stats(z, axes, donate=True)
    inv_std = 1.0 / np.sqrt(var + np.float32(eps))
    xhat *= inv_std
    y = z
    if gamma is not None:
        np.multiply(lane_view(xhat), lane_param(gamma), out=lane_view(y))
    else:
        np.copyto(y, xhat)
    if beta is not None:
        np.add(lane_view(y), lane_param(beta), out=lane_view(y))
    # relu, in place: the block keeps no pre-activation copy
    np.maximum(y, 0.0, out=y)
    out = avg_pool_forward(y, k)

    parents = [p for p in (x, weight, bias, gamma, beta) if p is not None]
    conv_grad = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad)
    if not weight.requires_grad:
        cols = None  # only the weight gradient reads the columns

    def backward(g: np.ndarray) -> None:
        # Every temporary lands in gy or in y, dead once the mask is taken:
        # the block's backward runs once, like conv2d's.
        nonlocal cols
        gy = avg_pool_backward(g, k)
        gy *= y > 0
        _norm_param_grads(gy, xhat, beta, gamma, lanes, donate=y)
        if not conv_grad:
            return
        if gamma is not None:
            np.multiply(lane_view(gy), lane_param(gamma), out=lane_view(gy))
        gz = _norm_backward(gy, xhat, inv_std, axes, donate=y)
        gflat = gz.reshape(n, oc, oh * ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_per_lane(lambda g: g.sum(axis=(0, 2)), lanes,
                                       gflat), own=True)
        if weight.requires_grad:
            dw = _per_lane(lambda g, cl: np.matmul(
                g, cl.transpose(0, 2, 1)).sum(axis=0), lanes, gflat, cols)
            weight._accumulate(dw.reshape(weight.shape), own=True)
        if x.requires_grad:
            x._accumulate(kernels.col2im(gz, weight.data, x.shape, stride,
                                         padding), own=True)
        cols = None

    return Tensor._make(out, parents, "conv_block", backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax with a fused backward pass."""
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
    """Affine map ``x @ weight.T + bias`` with (out, in)-shaped weight.

    A ``(T, out, in)`` weight (and ``(T, out)`` bias) carries a leading
    lane axis: lane ``t`` maps batch rows ``[t*n, (t+1)*n)`` of ``x``, in
    one node whose per-lane arithmetic is the plain path's.
    """
    if weight.ndim == 3:
        return _lane_linear(x, weight, bias)
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def _lane_linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    lanes = weight.shape[0]
    m = len(x) // lanes
    if m * lanes != len(x):
        raise ValueError(f"linear: batch {len(x)} does not split into {lanes} lanes")
    rows = [slice(t * m, (t + 1) * m) for t in range(lanes)]
    xd = x.data
    out = np.concatenate([
        xd[r] @ weight.data[t].T if bias is None
        else xd[r] @ weight.data[t].T + bias.data[t]
        for t, r in enumerate(rows)])
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.concatenate(
                [g[r] @ weight.data[t] for t, r in enumerate(rows)]), own=True)
        if weight.requires_grad:
            weight._accumulate(np.stack(
                [(xd[r].T @ g[r]).T for r in rows]), own=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(np.stack([g[r].sum(axis=0) for r in rows]),
                             own=True)

    return Tensor._make(_f32(out), parents, "linear", backward)

