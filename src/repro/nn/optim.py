"""Optimizers for model parameters and synthetic-image pixels.

Both uses are the same mechanically — an optimizer owns a list of
:class:`~repro.nn.tensor.Tensor` objects and applies updates from their
``.grad`` fields — which is exactly how the paper treats ``opt_theta`` (the
model optimizer) and ``opt_S`` (the condensed-dataset optimizer) in
Algorithm 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs.health import get_monitor
from .tensor import Tensor

__all__ = ["Optimizer", "SGD"]


class Optimizer:
    """Base optimizer over a fixed list of tensors."""

    def __init__(self, params: Sequence[Tensor], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with momentum and decoupled L2 weight decay.

    This matches the paper's training setup ("SGD with momentum ... weight
    decay of 5e-4").
    """

    def __init__(self, params: Sequence[Tensor], lr: float, *,
                 momentum: float = 0.9, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        # Per-instance step counter: the health monitor samples update
        # checks on it, so the cadence restarts with every fresh optimizer
        # (one per train_model call / condense segment) and stays identical
        # between serial and forked-worker sweep runs.
        self._steps = 0

    def step(self) -> None:
        self._steps += 1
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data = p.data - self.lr * update
        monitor = get_monitor()
        if monitor.update_due(self._steps):
            # Sampled post-update sentinel: per-layer gradient-norm and
            # update-to-weight gauges whose norms double as the finite
            # check on the applied update.
            updates = (self._velocity if self.momentum
                       else [p.grad for p in self.params])
            monitor.note_update("optim.sgd", [p.data for p in self.params],
                                [p.grad for p in self.params], updates,
                                self.lr, iteration=self._steps)
