"""DC: vanilla bilevel gradient matching (Zhao et al. [12]).

The Table II baseline.  Unlike DECO's one-step scheme, DC follows the
training *trajectory*: in each outer loop a model is initialized and then
alternately (a) the synthetic images are updated to match per-class
gradients and (b) the model itself is trained on the synthetic set for a
few steps, over ``inner_epochs`` epochs.  This is the bilevel structure of
Eq. (1) and is what makes DC roughly an order of magnitude slower than
DECO on-device.

The gradient of the matching distance w.r.t. the synthetic pixels reuses
the same finite-difference machinery as DECO (our whole-framework
substitution for PyTorch's second-order autograd; see DESIGN.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..buffer.buffer import SyntheticBuffer
from ..nn.layers import Module
from ..nn.losses import cross_entropy
from ..nn.optim import SGD
from ..nn.tensor import Tensor
from .base import CondensationMethod, CondensationStats, ModelFactory
from .matching import (distance_and_grad_wrt_gsyn,
                       finite_difference_matching_grad, parameter_gradients)

__all__ = ["DCMatcher"]


class DCMatcher(CondensationMethod):
    """Bilevel gradient matching condensation.

    Parameters
    ----------
    outer_loops:
        Number of model re-initializations (outer optimization restarts).
    inner_epochs:
        ``T`` — trajectory epochs followed per outer loop.
    net_steps:
        Model SGD steps on the synthetic set after each epoch's matching.
    syn_lr / syn_momentum:
        Synthetic-pixel optimizer settings.
    model_lr:
        Learning rate for the inner model updates.
    batch_size:
        Max real samples per class used in one matching step.
    metric:
        Gradient distance metric.
    """

    name = "dc"

    def __init__(self, *, outer_loops: int = 2, inner_epochs: int = 10,
                 net_steps: int = 10, syn_lr: float = 0.1,
                 syn_momentum: float = 0.5, model_lr: float = 0.01,
                 batch_size: int = 128, metric: str = "cosine") -> None:
        self.outer_loops = int(outer_loops)
        self.inner_epochs = int(inner_epochs)
        self.net_steps = int(net_steps)
        self.syn_lr = float(syn_lr)
        self.syn_momentum = float(syn_momentum)
        self.model_lr = float(model_lr)
        self.batch_size = int(batch_size)
        self.metric = metric

    def _sample_augmentation(self, image_size: int, rng: np.random.Generator):
        """Hook for DSA; plain DC applies no augmentation."""
        return None

    def _class_batch(self, real_x, real_y, real_w, cls: int,
                     rng: np.random.Generator):
        members = np.flatnonzero(real_y == cls)
        if members.size > self.batch_size:
            members = rng.choice(members, size=self.batch_size, replace=False)
        w = None if real_w is None else real_w[members]
        return real_x[members], real_y[members], w

    def _train_model_on_syn(self, model: Module, syn_x: np.ndarray,
                            syn_y: np.ndarray,
                            optimizer: SGD) -> int:
        passes = 0
        for _ in range(self.net_steps):
            optimizer.zero_grad()
            loss = cross_entropy(model(Tensor(syn_x)), syn_y)
            loss.backward()
            optimizer.step()
            passes += 1
        return passes

    def condense(self, buffer: SyntheticBuffer, active_classes: Sequence[int],
                 real_x: np.ndarray, real_y: np.ndarray,
                 real_w: np.ndarray | None, *,
                 model_factory: ModelFactory,
                 rng: np.random.Generator,
                 deployed_model: Module | None = None) -> CondensationStats:
        active = [int(c) for c in active_classes
                  if np.any(real_y == c)]
        if not active or len(real_x) == 0:
            return CondensationStats()

        active_rows = buffer.indices_for_classes(active)
        syn_labels = buffer.labels[active_rows]
        syn_pixels = Tensor(buffer.images[active_rows].copy(), requires_grad=True)
        syn_optimizer = SGD([syn_pixels], self.syn_lr, momentum=self.syn_momentum)
        row_of = {c: np.flatnonzero(syn_labels == c) for c in active}

        stats = CondensationStats()
        image_size = buffer.image_shape[-1]
        for _ in range(self.outer_loops):
            model = model_factory(rng)
            model_optimizer = SGD(model.parameters(), self.model_lr, momentum=0.5)
            for _ in range(self.inner_epochs):
                grad = np.zeros_like(syn_pixels.data)
                for cls in active:
                    augmentation = self._sample_augmentation(image_size, rng)
                    bx, by, bw = self._class_batch(real_x, real_y, real_w, cls, rng)
                    g_real, _ = parameter_gradients(model, bx, by, bw,
                                                    augmentation=augmentation)
                    rows = row_of[cls]
                    g_syn, _ = parameter_gradients(
                        model, syn_pixels.data[rows], syn_labels[rows],
                        augmentation=augmentation)
                    distance, direction = distance_and_grad_wrt_gsyn(
                        g_syn, g_real, metric=self.metric)
                    fd_stats: dict = {}
                    grad[rows] = finite_difference_matching_grad(
                        model, syn_pixels.data[rows], syn_labels[rows], direction,
                        augmentation=augmentation, stats_out=fd_stats)
                    stats.matching_loss += distance
                    stats.iterations += 1
                    # g_real, g_syn, grad_{g_syn}D, plus the two FD passes
                    # of Eq. 7 (0 when the direction norm was zero).
                    stats.forward_backward_passes += 3 + fd_stats.get("passes", 2)
                    if fd_stats.get("fused"):
                        stats.extra["fused"] = stats.extra.get("fused", 0) + 1
                syn_pixels.grad = grad
                syn_optimizer.step()
                syn_optimizer.zero_grad()
                # Inner-level: advance the model along the synthetic trajectory.
                stats.forward_backward_passes += self._train_model_on_syn(
                    model, syn_pixels.data, syn_labels, model_optimizer)

        stats.matching_loss /= max(stats.iterations, 1)
        buffer.images[active_rows] = syn_pixels.data
        return stats
