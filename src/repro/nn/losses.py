"""Loss functions used by the paper.

* :func:`cross_entropy` — the confidence-weighted cross-entropy of Eq. (4).
  Synthetic samples carry weight 1; real streamed samples carry their
  pseudo-label confidence ``p_theta(x)_yhat``.
* :func:`feature_discrimination_loss` — the supervised-contrastive purity
  objective of Eq. (8).
* :func:`gradient_distance` — the layer-wise distance ``D`` between two
  gradient lists (cosine by default, as in the paper; L2 also provided).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import functional as F
from .tensor import Tensor

__all__ = [
    "cross_entropy",
    "accuracy",
    "feature_discrimination_loss",
    "gradient_distance",
]


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  weights: np.ndarray | None = None,
                  reduction: str = "mean") -> Tensor:
    """Confidence-weighted softmax cross-entropy (Eq. 4).

    Parameters
    ----------
    logits:
        (N, C) class scores.
    labels:
        (N,) integer class indices.
    weights:
        Optional (N,) per-sample weights ``w_i``; defaults to all ones.
    reduction:
        ``"mean"``, ``"sum"``, or ``"none"``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    log_probs = F.log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), labels]
    losses = -picked
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float32)
        if weights.shape != (n,):
            raise ValueError(f"weights shape {weights.shape} does not match batch {n}")
        losses = losses * Tensor(weights)
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def accuracy(logits: np.ndarray | Tensor, labels: np.ndarray) -> float:
    """Top-1 accuracy of (N, C) scores against integer labels."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=1)
    return float((predictions == np.asarray(labels)).mean())


def feature_discrimination_loss(features: Tensor, labels: np.ndarray,
                                active_indices: Sequence[int],
                                rng: np.random.Generator, *,
                                temperature: float = 0.07,
                                normalize: bool = True,
                                negative_classes: Sequence[int] | None = None
                                ) -> Tensor:
    """Feature discrimination loss over buffer samples (Eq. 8).

    For each active sample ``i``, positives are all other buffer samples of
    the same class; negatives are all samples of one *randomly chosen* other
    class ``c_i^neg``.  The loss pulls same-class features together and
    pushes them away from the sampled negative class.

    Parameters
    ----------
    features:
        (M, D) encoder embeddings ``z' = f_theta(x')`` of the whole buffer.
    labels:
        (M,) integer labels of the buffer samples.
    active_indices:
        Indices (into the buffer) of the currently active samples ``A``.
    rng:
        Source of randomness for negative-class sampling.
    temperature:
        Softmax temperature ``tau``.
    normalize:
        L2-normalize embeddings first (standard for contrastive losses with
        ``tau = 0.07``).
    negative_classes:
        Optional pre-sampled negative class per active sample (parallel to
        ``active_indices``).  When omitted, one other class is drawn
        uniformly per sample, as the paper describes.  Pre-sampling lets
        callers restrict feature computation to the involved classes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if negative_classes is not None and len(negative_classes) != len(active_indices):
        raise ValueError("negative_classes must parallel active_indices")
    if normalize:
        features = F.l2_normalize(features, axis=1)
    # (M, M) pairwise similarities divided by temperature.
    sims = features.matmul(features.T) * (1.0 / temperature)

    terms: list[Tensor] = []
    for pos, i in enumerate(active_indices):
        yi = labels[i]
        positives = np.flatnonzero((labels == yi))
        positives = positives[positives != i]
        if positives.size == 0:
            continue
        if negative_classes is not None:
            neg_class = int(negative_classes[pos])
            if neg_class == yi:
                raise ValueError("negative class equals the sample's class")
        else:
            other = classes[classes != yi]
            if other.size == 0:
                continue
            neg_class = int(rng.choice(other))
        negatives = np.flatnonzero(labels == neg_class)
        if negatives.size == 0:
            continue
        row = sims[i]
        # log denominator: log sum_n exp(sim_in)
        neg_sims = row[negatives]
        log_denominator = neg_sims.exp().sum().log()
        pos_sims = row[positives]
        term = (pos_sims - log_denominator).mean()
        terms.append(-term)
    if not terms:
        return Tensor(0.0)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _rowwise(flat: Tensor | np.ndarray) -> Tensor:
    return flat if isinstance(flat, Tensor) else Tensor(flat)


def gradient_distance(grads_a: Sequence[Tensor | np.ndarray],
                      grads_b: Sequence[np.ndarray], *,
                      metric: str = "cosine", eps: float = 1e-8) -> Tensor:
    """Layer-wise distance ``D`` between two gradient lists.

    Cosine follows DC [12]: each layer gradient is reshaped to
    (out_dim, -1) and the distance is ``sum_rows (1 - cos(row_a, row_b))``,
    summed over layers.  ``grads_a`` may contain :class:`Tensor` objects with
    ``requires_grad`` so that the result is differentiable with respect to
    them (needed for ``grad_{g_syn} D`` in Eq. 6).

    Parameters
    ----------
    grads_a, grads_b:
        Parallel lists of per-parameter gradients.
    metric:
        ``"cosine"`` (paper default) or ``"l2"``.
    """
    if len(grads_a) != len(grads_b):
        raise ValueError("gradient lists have different lengths")
    total: Tensor | None = None
    for ga, gb in zip(grads_a, grads_b):
        ga = _rowwise(ga)
        gb_arr = gb.data if isinstance(gb, Tensor) else np.asarray(gb, dtype=np.float32)
        rows = ga.shape[0] if ga.ndim > 1 else 1
        a2 = ga.reshape(rows, -1)
        b2 = Tensor(gb_arr.reshape(rows, -1))
        if metric == "cosine":
            dot = (a2 * b2).sum(axis=1)
            norm_a = ((a2 * a2).sum(axis=1) + eps).sqrt()
            norm_b = ((b2 * b2).sum(axis=1) + eps).sqrt()
            layer = (1.0 - dot / (norm_a * norm_b)).sum()
        elif metric == "l2":
            diff = a2 - b2
            layer = (diff * diff).sum()
        else:
            raise ValueError(f"unknown metric {metric!r}")
        total = layer if total is None else total + layer
    if total is None:
        raise ValueError("gradient lists are empty")
    return total
