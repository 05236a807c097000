"""Gradient-matching primitives shared by the condensation methods.

Implements the building blocks of §III-C:

* :func:`parameter_gradients` — ``g = grad_theta L(X, Y)`` for a batch
  (one forward-backward pass);
* :func:`input_gradient` — ``grad_X L(X, Y)`` at fixed parameters;
* :func:`distance_and_grad_wrt_gsyn` — evaluates the layer-wise distance
  ``D(g_syn, g_real)`` and its gradient with respect to ``g_syn``
  (the ``grad_{g_syn} D`` factor of Eq. 6);
* :func:`finite_difference_matching_grad` — the paper's five-pass
  finite-difference approximation (Eq. 7) of ``grad_{X'} D``.

Every pass runs in micro-batches (:func:`repro.utils.batching.micro_batches`),
so its activations and kernel scratch are bounded by the slice, not by the
segment or the buffer.  Each slice's loss is its summed (weighted) CE
scaled by ``1/n`` of the whole batch: the slices add up to the batch mean,
parameter gradients accumulate over them, and input gradients (per-sample
for a model without batch statistics) are written slice by slice.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

from .. import obs
from ..data.transforms import AugmentationParams, apply_augmentation
from ..nn import functional as F
from ..nn import kernels
from ..nn.convnet import ConvNet
from ..nn.layers import (AvgPool2d, Conv2d, Flatten, InstanceNorm2d, Linear,
                         Module, ReLU, frozen_parameters)
from ..nn.losses import cross_entropy, gradient_distance
from ..nn.tensor import Tensor
from ..utils.batching import micro_batches

__all__ = [
    "parameter_gradients",
    "input_gradient",
    "distance_and_grad_wrt_gsyn",
    "finite_difference_matching_grad",
    "gradient_cosine",
    "fd_fuse_stats",
    "reset_fd_fuse_stats",
    "clear_fd_fuse_verdicts",
    "EPSILON_NUMERATOR",
]

# Following DARTS [34] and footnote 2: epsilon = 0.01 / ||grad_{g_syn} D||_2.
EPSILON_NUMERATOR = 0.01


def _slice_loss(model: Module, x: Tensor, y: np.ndarray,
                w: np.ndarray | None, n: int,
                augmentation: AugmentationParams | None) -> Tensor:
    """One slice's share of the batch-mean CE: its summed loss times
    ``1/n``.  ``mean`` is ``sum * (1/count)``, so a slice holding the whole
    batch builds exactly the graph (and bytes) of the batch mean."""
    if augmentation is not None:
        x = apply_augmentation(x, augmentation)
    logits = model(x)
    return cross_entropy(logits, y, weights=w, reduction="sum") * (1.0 / n)


def parameter_gradients(model: Module, x: np.ndarray, y: np.ndarray,
                        w: np.ndarray | None = None, *,
                        augmentation: AugmentationParams | None = None
                        ) -> tuple[list[np.ndarray], float]:
    """Gradients of the (confidence-weighted) CE loss w.r.t. every parameter.

    Returns the per-parameter gradient list (ordered as
    ``model.parameters()``) and the scalar loss value, both accumulated
    over the micro-batches of ``x``.
    """
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y)
    model.zero_grad()
    loss = 0.0
    for part in micro_batches(x, model):
        part_loss = _slice_loss(model, Tensor(x[part]), y[part],
                                None if w is None else w[part], len(x),
                                augmentation)
        part_loss.backward()
        loss += part_loss.item()
    # zero_grad() below drops the model's references to the gradient arrays,
    # so returning them directly (no .copy()) is safe.
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad
             for p in model.parameters()]
    model.zero_grad()
    return grads, loss


def _input_gradient_slices(model, x, y, w, augmentation, parts) -> np.ndarray:
    """``grad_X`` of the batch-mean CE at fixed parameters, one backward
    per slice in ``parts``.

    Under the fast kernels the model parameters are temporarily frozen so
    the backward pass skips every parameter-gradient reduction — the FD
    passes of Eq. (7) only consume ``grad_X``.
    """
    grad = np.zeros_like(x)
    model.zero_grad()
    freeze = (frozen_parameters(model) if kernels.fast_kernels_enabled()
              else contextlib.nullcontext())
    with freeze:
        for part in parts:
            x_part = Tensor(x[part], requires_grad=True)
            _slice_loss(model, x_part, y[part],
                        None if w is None else w[part], len(x),
                        augmentation).backward()
            if x_part.grad is not None:
                grad[part] = x_part.grad
    model.zero_grad()
    return grad


def input_gradient(model: Module, x: np.ndarray, y: np.ndarray,
                   w: np.ndarray | None = None, *,
                   augmentation: AugmentationParams | None = None) -> np.ndarray:
    """Gradient of the CE loss w.r.t. the input pixels at fixed parameters,
    evaluated over the micro-batches of ``x``."""
    x = np.asarray(x, dtype=np.float32)
    return _input_gradient_slices(model, x, np.asarray(y), w, augmentation,
                                  micro_batches(x, model))


def distance_and_grad_wrt_gsyn(g_syn: Sequence[np.ndarray],
                               g_real: Sequence[np.ndarray], *,
                               metric: str = "cosine"
                               ) -> tuple[float, list[np.ndarray]]:
    """Evaluate ``D(g_syn, g_real)`` and ``grad_{g_syn} D``.

    The distance is built as a small autodiff graph over the gradient
    arrays, so any differentiable metric supported by
    :func:`repro.nn.losses.gradient_distance` works.
    """
    wrapped = [Tensor(g, requires_grad=True) for g in g_syn]
    distance = gradient_distance(wrapped, list(g_real), metric=metric)
    distance.backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in wrapped]
    return distance.item(), grads


def gradient_cosine(g_syn: Sequence[np.ndarray],
                    g_real: Sequence[np.ndarray]) -> float:
    """Cosine between the flattened synthetic and real gradient stacks.

    The condensation-quality scalar: how well ``g_syn`` tracks ``g_real``
    over all layers at once — the quantity gradient matching optimizes.
    Both gradient lists are already materialized by the matching pass, so
    this costs three dot products.  NaN when either stack is zero or
    non-finite.
    """
    dot = sum(float(np.vdot(s, r)) for s, r in zip(g_syn, g_real))
    syn_sq = sum(float(np.vdot(s, s)) for s in g_syn)
    real_sq = sum(float(np.vdot(r, r)) for r in g_real)
    denom = float(np.sqrt(syn_sq) * np.sqrt(real_sq))
    if not np.isfinite(dot) or not np.isfinite(denom) or denom == 0.0:
        return float("nan")
    return dot / denom


# ----------------------------------------------------------------------
# Fused ±ε evaluation
# ----------------------------------------------------------------------
# Module-level bookkeeping for the fused path.  ``_FUSE_VERDICTS`` caches,
# per (architecture, input shape) signature, whether the fused evaluation
# reproduced the sequential two-pass bytes on its first use (verify once,
# then trust).
_FD_STATS = {"fused_dispatches": 0, "serial_fallbacks": 0,
             "verifications": 0, "verification_failures": 0}
_FUSE_VERDICTS: dict[tuple, bool] = {}

#: Layer types the lane-grouped evaluator knows how to batch-stack (the
#: ConvNet backbone's exact vocabulary — anything else falls back serial).
_LANE_LAYERS = (Conv2d, InstanceNorm2d, ReLU, AvgPool2d, Flatten)


def fd_fuse_stats() -> dict[str, int]:
    """Module-level fused-FD counters (pulled as gauges by the telemetry
    layer; the live obs counters are emitted at dispatch time)."""
    return dict(_FD_STATS)


def reset_fd_fuse_stats() -> None:
    for key in _FD_STATS:
        _FD_STATS[key] = 0


def clear_fd_fuse_verdicts() -> None:
    """Forget cached first-use verdicts (tests only — forces re-probing)."""
    _FUSE_VERDICTS.clear()


def _fuse_layout(model: Module):
    """``(encoder_layers, classifier)`` when ``model`` has the ConvNet
    structure the lane evaluator supports, else ``None``."""
    if not isinstance(model, ConvNet):
        return None
    layers = list(model.encoder)
    if not layers or not isinstance(layers[0], Conv2d):
        return None
    for layer in layers:
        if not isinstance(layer, _LANE_LAYERS):
            return None
    clf = model.classifier
    if not isinstance(clf, Linear):
        return None
    return layers, clf


def _fuse_key(layers, clf, x_shape) -> tuple:
    """Structural signature the first-use verification verdict is cached by."""
    desc = []
    for layer in layers:
        if isinstance(layer, Conv2d):
            desc.append(("conv", layer.out_channels, layer.in_channels,
                         layer.kernel_size, layer.stride, layer.padding,
                         layer.bias is not None))
        elif isinstance(layer, InstanceNorm2d):
            desc.append(("inorm", layer.num_channels, float(layer.eps),
                         layer.gamma is not None, layer.beta is not None))
        elif isinstance(layer, ReLU):
            desc.append(("relu",))
        elif isinstance(layer, AvgPool2d):
            desc.append(("avg", layer.kernel_size))
        else:  # Flatten
            desc.append(("flat", layer.start_dim))
    desc.append(("linear", clf.out_features, clf.in_features,
                 clf.bias is not None))
    # The composite col2im runs under the active scatter mode; a verdict
    # must not outlive a mode switch.
    return (tuple(desc), tuple(int(s) for s in x_shape),
            kernels.scatter_mode())


def _lane_param_sets(params, direction, eps):
    """The +ε / −ε parameter arrays, computed with the exact operations the
    sequential path uses (``eps*d + orig`` and ``orig - eps*d``)."""
    plus, minus = [], []
    for p, d in zip(params, direction):
        orig = p.data
        pd = np.multiply(d, eps)
        plus.append(pd + orig)
        minus.append(np.subtract(orig, pd))
    return plus, minus


def _fused_input_gradients(layers, clf, syn_x, syn_y, plus, minus, index_of,
                           parts):
    """Both perturbed input-gradient passes, each slice in ``parts`` as one
    grouped forward/backward."""
    grad_plus = np.empty_like(syn_x)
    grad_minus = np.empty_like(syn_x)
    for part in parts:
        grad_plus[part], grad_minus[part] = _fused_slice(
            layers, clf, syn_x[part], syn_y[part], plus, minus, index_of,
            len(syn_x))
    return grad_plus, grad_minus


def _fused_slice(layers, clf, syn_x, syn_y, plus, minus, index_of, batch):
    """Both perturbed input-gradient passes over one slice of a ``batch``-row
    synthetic batch.

    Lane 0 (+ε) occupies composite batch rows ``[0, n)``, lane 1 (−ε) rows
    ``[n, 2n)``.  The first conv shares one im2col of ``syn_x`` between the
    lanes; the classifier tail runs per lane so each loss graph matches the
    sequential one node for node.
    """
    n = syn_x.shape[0]
    lanes = (plus, minus)

    first = layers[0]
    w_first = [lane[index_of[id(first.weight)]] for lane in lanes]
    b_first = ([lane[index_of[id(first.bias)]] for lane in lanes]
               if first.bias is not None else [None, None])
    h, first_backward = F.conv2d_lanes_shared(
        syn_x, w_first, b_first, stride=first.stride, padding=first.padding)
    # Hand-chained closures instead of a Tensor graph: the encoder is a
    # straight line, so topological bookkeeping and gradient accumulation
    # buy nothing here — each op returns its ndarray and a backward closure
    # computing exactly the bytes the Tensor op's backward would.
    bwds = []
    for layer in layers[1:]:
        if isinstance(layer, Conv2d):
            ws = [lane[index_of[id(layer.weight)]] for lane in lanes]
            bs = ([lane[index_of[id(layer.bias)]] for lane in lanes]
                  if layer.bias is not None else [None, None])
            h, bwd = F.conv2d_lanes(h, ws, bs, stride=layer.stride,
                                    padding=layer.padding)
        elif isinstance(layer, InstanceNorm2d):
            gs = ([lane[index_of[id(layer.gamma)]] for lane in lanes]
                  if layer.gamma is not None else [None, None])
            bs = ([lane[index_of[id(layer.beta)]] for lane in lanes]
                  if layer.beta is not None else [None, None])
            h, bwd = F.instance_norm2d_lanes(h, gs, bs, eps=layer.eps)
        elif isinstance(layer, ReLU):
            src = h
            h = np.maximum(src, 0.0)
            bwd = (lambda g, src=src: g * (src > 0))
        elif isinstance(layer, AvgPool2d):
            k = int(layer.kernel_size)
            h = F.avg_pool_forward(h, k)
            bwd = (lambda g, k=k: F.avg_pool_backward(g, k))
        else:  # Flatten
            shape = h.shape
            h = h.reshape(shape[:layer.start_dim] + (-1,))
            bwd = (lambda g, shape=shape: g.reshape(shape))
        bwds.append(bwd)

    # Classifier tail per lane, replicated in closed form: linear →
    # log-softmax → mean NLL, with each ufunc written exactly as the
    # Tensor ops compute it (same operand views, same in-place updates,
    # same float32 scalars) so the feature gradient is bit-identical to
    # ``loss.backward()`` on the sequential graph.
    feats = h
    labels = np.asarray(syn_y, dtype=np.int64)
    rows = np.arange(n)
    # d(mean NLL)/d(picked log-prob): backward seeds with ones, the mean
    # over the whole batch multiplies by float32(1/batch), the negation
    # flips it.
    neg_inv = -(np.float32(1.0) * np.float32(1.0 / batch))
    seeds = []
    for t, lane in enumerate(lanes):
        f_l = feats[t * n:(t + 1) * n]
        w = lane[index_of[id(clf.weight)]]
        logits = f_l @ w.T
        if clf.bias is not None:
            logits = logits + lane[index_of[id(clf.bias)]]
        # log_softmax fast path (forward), keeping softmax for backward.
        out = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(out)
        out -= np.log(e.sum(axis=1, keepdims=True))
        softmax_vals = np.exp(out)
        # Backward: scatter -1/n into the picked entries, then the
        # log-softmax and matmul gradients.
        g_lp = np.zeros_like(out)
        g_lp[rows, labels] = neg_inv
        g_logits = g_lp - softmax_vals * g_lp.sum(axis=1, keepdims=True)
        seeds.append(g_logits @ w)
    g = np.concatenate(seeds, axis=0)
    for bwd in reversed(bwds):
        g = bwd(g)
    dx2 = first_backward(g)
    return dx2[:n], dx2[n:]


def _serial_fd_passes(model, params, syn_x, syn_y, direction, eps,
                      augmentation, parts):
    """The sequential two-pass evaluation (the pre-fusion code path), over
    the same slices as the fused one.

    The perturbed passes never mutate parameter arrays in place (they only
    rebind ``p.data``), so the current arrays themselves are the exact
    restore points — no per-iteration snapshot copies needed.  The
    perturbed values go into one scratch array per parameter, reused by
    both passes: ``buf = eps*d; buf += orig`` and
    ``buf = eps*d; buf = orig - buf`` reproduce the former
    ``orig + eps*d`` / ``orig - eps*d`` bit for bit (float add is
    commutative; the subtraction is the identical operation).
    """
    originals = [p.data for p in params]
    buffers = [np.empty(p.data.shape, dtype=np.float32) for p in params]
    try:
        for p, buf, orig, d in zip(params, buffers, originals, direction):
            np.multiply(d, eps, out=buf)
            buf += orig
            p.data = buf
        with obs.span("pass.fd_plus"):
            grad_plus = _input_gradient_slices(model, syn_x, syn_y, None,
                                               augmentation, parts)
        for p, buf, orig, d in zip(params, buffers, originals, direction):
            np.multiply(d, eps, out=buf)
            np.subtract(orig, buf, out=buf)
            p.data = buf
        with obs.span("pass.fd_minus"):
            grad_minus = _input_gradient_slices(model, syn_x, syn_y, None,
                                                augmentation, parts)
    finally:
        for p, orig in zip(params, originals):
            p.data = orig
    return grad_plus, grad_minus


def finite_difference_matching_grad(model: Module, syn_x: np.ndarray,
                                    syn_y: np.ndarray,
                                    direction: Sequence[np.ndarray], *,
                                    augmentation: AugmentationParams | None = None,
                                    epsilon_numerator: float = EPSILON_NUMERATOR,
                                    stats_out: dict | None = None
                                    ) -> np.ndarray:
    """Approximate ``grad_{X'} D`` via Eq. (7).

    Shifts the model parameters by ``±eps * direction`` where ``direction``
    is ``grad_{g_syn} D`` and ``eps = epsilon_numerator / ||direction||_2``,
    and differences the resulting input gradients.  The model parameters
    are restored exactly afterwards.

    When the fused path is enabled (``REPRO_FD_FUSE``, fast kernels, no
    augmentation) and the model has the supported ConvNet structure, both
    perturbed passes run as one batch-stacked forward/backward per slice.
    The first fused-eligible call per (architecture, shape) signature
    evaluates both paths and byte-compares them; a mismatch pins that
    signature to the sequential path permanently (``fd.serial_fallbacks``),
    a match lets subsequent calls dispatch fused directly
    (``fd.fused_dispatches``).

    ``stats_out``, when given, receives ``{"passes": 0|1|2, "fused": bool}``
    — the number of forward/backward evaluations that actually ran, for the
    condense drivers' derived pass accounting.
    """
    with obs.span("pass.fd_total"):
        return _fd_matching_grad(model, syn_x, syn_y, direction,
                                 augmentation=augmentation,
                                 epsilon_numerator=epsilon_numerator,
                                 stats_out=stats_out)


def _fd_matching_grad(model, syn_x, syn_y, direction, *, augmentation,
                      epsilon_numerator, stats_out):
    params = model.parameters()
    if len(params) != len(direction):
        raise ValueError("direction list does not match model parameters")
    norm = float(np.sqrt(sum(float((d ** 2).sum()) for d in direction)))
    if not obs.get_monitor().check("fd.direction_norm", norm):
        # skip-step: a non-finite direction cannot produce a usable FD
        # step; hand back a zero matching gradient (like the norm == 0
        # case) so the caller's update stays finite.  Under ``record``
        # the check returns True and the bytes below are unchanged.
        if stats_out is not None:
            stats_out["passes"] = 0
            stats_out["fused"] = False
        return np.zeros_like(np.asarray(syn_x, dtype=np.float32))
    if norm == 0.0:
        if stats_out is not None:
            stats_out["passes"] = 0
            stats_out["fused"] = False
        return np.zeros_like(np.asarray(syn_x, dtype=np.float32))
    eps = epsilon_numerator / norm
    syn_x32 = np.asarray(syn_x, dtype=np.float32)
    syn_y = np.asarray(syn_y)
    # Both paths run over the same slices, sized for the fused path's
    # two-lane composite, so each fused slice can be checked against the
    # sequential bytes.
    parts = micro_batches(syn_x32, model, lanes=2)

    fuse_eligible = (augmentation is None and kernels.fast_kernels_enabled()
                     and kernels.fd_fuse_enabled())
    layout = _fuse_layout(model) if fuse_eligible else None
    fused = False
    if layout is None:
        grad_plus, grad_minus = _serial_fd_passes(
            model, params, syn_x32, syn_y, direction, eps, augmentation,
            parts)
        if kernels.fd_fuse_enabled() and kernels.fast_kernels_enabled():
            _FD_STATS["serial_fallbacks"] += 1
            obs.counter("fd.serial_fallbacks")
    else:
        layers, clf = layout
        key = _fuse_key(layers, clf, syn_x32.shape)
        verdict = _FUSE_VERDICTS.get(key)
        index_of = {id(p): i for i, p in enumerate(params)}
        if verdict is None:
            # First use for this signature: run both paths and demand
            # byte identity before trusting the fused one.
            _FD_STATS["verifications"] += 1
            plus, minus = _lane_param_sets(params, direction, eps)
            with obs.span("pass.fd_fused"):
                fused_pm = _fused_input_gradients(
                    layers, clf, syn_x32, syn_y, plus, minus, index_of, parts)
            # The sequential reference is probe work: it only exists to
            # validate the fused bytes, and it runs in whichever process
            # first sees this signature (verdicts ride along fork into
            # sweep workers).  Emit no telemetry for it so counter
            # parity between serial and worker runs is preserved.
            with obs.scoped_telemetry(obs.Telemetry()):
                serial_pm = _serial_fd_passes(
                    model, params, syn_x32, syn_y, direction, eps,
                    augmentation, parts)
            ok = (np.array_equal(fused_pm[0], serial_pm[0])
                  and np.array_equal(fused_pm[1], serial_pm[1]))
            if not ok:
                _FD_STATS["verification_failures"] += 1
            _FUSE_VERDICTS[key] = ok
            fused = ok
            grad_plus, grad_minus = serial_pm
        elif verdict:
            plus, minus = _lane_param_sets(params, direction, eps)
            with obs.span("pass.fd_fused"):
                grad_plus, grad_minus = _fused_input_gradients(
                    layers, clf, syn_x32, syn_y, plus, minus, index_of, parts)
            fused = True
        else:
            grad_plus, grad_minus = _serial_fd_passes(
                model, params, syn_x32, syn_y, direction, eps, augmentation,
                parts)
        if fused:
            _FD_STATS["fused_dispatches"] += 1
            obs.counter("fd.fused_dispatches")
        else:
            _FD_STATS["serial_fallbacks"] += 1
            obs.counter("fd.serial_fallbacks")

    if stats_out is not None:
        stats_out["passes"] = 1 if fused else 2
        stats_out["fused"] = fused
    return (grad_plus - grad_minus) / (2.0 * eps)
