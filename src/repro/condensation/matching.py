"""Gradient-matching primitives shared by the condensation methods.

Implements the building blocks of §III-C:

* :func:`parameter_gradients` — ``g = grad_theta L(X, Y)`` for a batch
  (one forward-backward pass);
* :func:`input_gradient` — ``grad_X L(X, Y)`` at fixed parameters;
* :func:`distance_and_grad_wrt_gsyn` — evaluates the layer-wise distance
  ``D(g_syn, g_real)`` and its gradient with respect to ``g_syn``
  (the ``grad_{g_syn} D`` factor of Eq. 6) in closed form;
* :func:`finite_difference_matching_grad` — the paper's five-pass
  finite-difference approximation (Eq. 7) of ``grad_{X'} D``.

Every pass runs in micro-batches (:func:`repro.utils.batching.micro_batches`),
so its activations and kernel scratch are bounded by the slice, not by the
segment or the buffer.  Each slice's loss is its summed (weighted) CE
scaled by ``1/n`` of the whole batch: the slices add up to the batch mean,
parameter gradients accumulate over them, and input gradients (per-sample,
since every layer is) are written slice by slice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..data.transforms import AugmentationParams, apply_augmentation
from ..nn.layers import Module, frozen_parameters
from ..nn.losses import cross_entropy
from ..nn.tensor import Tensor
from ..utils.batching import micro_batches

__all__ = [
    "parameter_gradients",
    "input_gradient",
    "distance_and_grad_wrt_gsyn",
    "finite_difference_matching_grad",
    "gradient_cosine",
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
    for part in micro_batches(x):
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


def _input_gradient_slices(model, x, y, w, augmentation, parts, *,
                           lanes: int = 1) -> np.ndarray:
    """``grad_X`` of the batch-mean CE at fixed parameters, one backward
    per slice in ``parts``.

    The model parameters are temporarily frozen so the backward pass skips
    every parameter-gradient reduction — the FD passes of Eq. (7) only
    consume ``grad_X``.  With ``lanes > 1`` the parameters carry a leading
    lane axis: each slice runs tiled ``lanes`` times (lane ``t`` on copy
    ``t``) and the result is the ``(lanes, *x.shape)`` stack of per-lane
    gradients.
    """
    grad = np.zeros((lanes,) + x.shape, dtype=np.float32)
    model.zero_grad()
    with frozen_parameters(model):
        for part in parts:
            xs, ys = x[part], y[part]
            ws = None if w is None else w[part]
            if lanes > 1:
                xs, ys = np.concatenate([xs] * lanes), np.tile(ys, lanes)
                ws = None if ws is None else np.tile(ws, lanes)
            x_part = Tensor(xs, requires_grad=True)
            _slice_loss(model, x_part, ys, ws, len(x), augmentation).backward()
            if x_part.grad is not None:
                grad[:, part] = x_part.grad.reshape(lanes, -1, *x.shape[1:])
    model.zero_grad()
    return grad if lanes > 1 else grad[0]


def input_gradient(model: Module, x: np.ndarray, y: np.ndarray,
                   w: np.ndarray | None = None, *,
                   augmentation: AugmentationParams | None = None) -> np.ndarray:
    """Gradient of the CE loss w.r.t. the input pixels at fixed parameters,
    evaluated over the micro-batches of ``x``."""
    x = np.asarray(x, dtype=np.float32)
    return _input_gradient_slices(model, x, np.asarray(y), w, augmentation,
                                  micro_batches(x))


def distance_and_grad_wrt_gsyn(g_syn: Sequence[np.ndarray],
                               g_real: Sequence[np.ndarray], *,
                               metric: str = "cosine"
                               ) -> tuple[float, list[np.ndarray]]:
    """Evaluate ``D(g_syn, g_real)`` and ``grad_{g_syn} D`` in closed form.

    Each layer is the ``(rows, -1)`` view of its gradient, as in
    :func:`repro.nn.losses.gradient_distance`.  With ``dot``, ``na`` and
    ``nb`` the per-row dot product and (``eps``-padded) norms, a cosine
    layer ``sum_rows (1 - dot / (na * nb))`` has the row gradient
    ``-b / (na * nb) + (dot / (na * nb)**2) * (nb / na) * a``; an L2 layer
    ``sum (a - b)**2`` has ``2 (a - b)``.  Every product and sum below is
    the one the autodiff graph of ``gradient_distance`` evaluates, in its
    order, so D and every direction array are that graph's bytes — without
    building ~13 nodes per parameter each call.  The directions are
    C-contiguous whatever the layout of ``g_real``, so reductions over
    them (the Eq. 7 step size) see one memory order.
    """
    if len(g_syn) != len(g_real):
        raise ValueError("gradient lists have different lengths")
    if not g_syn:
        raise ValueError("gradient lists are empty")
    if metric not in ("cosine", "l2"):
        raise ValueError(f"unknown metric {metric!r}")
    one, eps = np.float32(1.0), np.float32(1e-8)
    total = None
    grads = []
    for gs, gr in zip(g_syn, g_real):
        a = np.asarray(gs, dtype=np.float32)
        rows = a.shape[0] if a.ndim > 1 else 1
        a2 = a.reshape(rows, -1)
        b2 = np.asarray(gr, dtype=np.float32).reshape(rows, -1)
        if metric == "cosine":
            dot = (a2 * b2).sum(axis=1)
            na = np.sqrt((a2 * a2).sum(axis=1) + eps)
            nb = np.sqrt((b2 * b2).sum(axis=1) + eps)
            den = na * nb
            layer = (one - dot / den).sum()
            # The graph's backward: d/d(dot) = -1/den, and through den,
            # then na's square root, d/d(a.a) = dot/den**2 * nb * 0.5/na,
            # which reaches ``a`` twice (a * a has ``a`` on both sides).
            g_dot = (-one / den)[:, None]
            g_sq = (((dot / den ** 2) * nb) * 0.5 / na)[:, None]
            grad = np.multiply(g_dot, b2, order="C")
            grad += g_sq * a2
            grad += g_sq * a2
        else:
            diff = a2 - b2
            layer = (diff * diff).sum()
            grad = np.add(diff, diff, order="C")
        total = layer if total is None else total + layer
        grads.append(grad.reshape(a.shape))
    return float(total), grads


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
# The ±ε passes of Eq. (7)
# ----------------------------------------------------------------------
def _lane_param_sets(params, direction, eps):
    """Each parameter's two lanes ``np.stack([θ+εd, θ−εd])``, computed with
    the exact operations the sequential path uses (``eps*d + orig`` and
    ``orig - eps*d``)."""
    stacked = []
    for p, d in zip(params, direction):
        orig = p.data
        pd = np.multiply(d, eps)
        lanes = np.empty((2,) + orig.shape, dtype=np.float32)
        np.add(pd, orig, out=lanes[0])
        np.subtract(orig, pd, out=lanes[1])
        stacked.append(lanes)
    return stacked


def _stacked_fd_passes(model, params, syn_x, syn_y, direction, eps, parts):
    """Both perturbed input-gradient passes as one ordinary forward/backward
    per slice: every parameter is rebound to its ``[+ε, −ε]`` lane stack
    and every slice runs tiled twice, lane 0 (+ε) on the first copy and
    lane 1 (−ε) on the second.  Each lane's rows see exactly the operands
    of the sequential pass, so the gradients are byte-identical to
    :func:`_serial_fd_passes`."""
    originals = [p.data for p in params]
    try:
        for p, stacked in zip(params,
                              _lane_param_sets(params, direction, eps)):
            p.data = stacked
        with obs.span("pass.fd_fused"):
            grad = _input_gradient_slices(model, syn_x, syn_y, None, None,
                                          parts, lanes=2)
    finally:
        for p, orig in zip(params, originals):
            p.data = orig
    return grad[0], grad[1]


def _serial_fd_passes(model, params, syn_x, syn_y, direction, eps,
                      augmentation, parts):
    """The two perturbed input-gradient passes run one after the other: the
    path for a model that cannot run lanes and for augmented passes.

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

    The two perturbed passes run as one lane-stacked pass
    (``pass.fd_fused``) when the model runs lanes
    (:meth:`~repro.nn.layers.Module.runs_lanes`) and no augmentation
    applies, else sequentially (``pass.fd_plus`` /
    ``pass.fd_minus``); both give the same bytes.

    ``stats_out``, when given, receives ``{"passes": 0|2, "fused": bool}``
    — the Eq. 7 forward/backward passes (0 when the direction is zero)
    and whether they ran lane-stacked.
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
    # A reduction sums in memory order: reduce each direction in C order
    # so the step size depends on its values alone, not its layout.
    norm = float(np.sqrt(sum(float((np.ascontiguousarray(d) ** 2).sum())
                             for d in direction)))
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
    # Both paths run over the same slices, sized for the stacked path's
    # two-lane composite.
    parts = micro_batches(syn_x32, lanes=2)
    fused = augmentation is None and model.runs_lanes()
    if fused:
        grad_plus, grad_minus = _stacked_fd_passes(
            model, params, syn_x32, syn_y, direction, eps, parts)
    else:
        grad_plus, grad_minus = _serial_fd_passes(
            model, params, syn_x32, syn_y, direction, eps, augmentation,
            parts)
    if stats_out is not None:
        stats_out["passes"] = 2
        stats_out["fused"] = fused
    return (grad_plus - grad_minus) / (2.0 * eps)
