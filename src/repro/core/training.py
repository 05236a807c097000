"""Model training and evaluation loops.

The deployed model is (re)trained on buffer contents every ``beta`` stream
segments with SGD + momentum and weight decay 5e-4, the setup reported in
§IV-A3.  These helpers are also used for the offline pre-training phase.

Every pass runs in micro-batches (:func:`repro.utils.batching.micro_batches`,
at most 64 KiB of input each), so its activations and kernel scratch are
bounded by the micro-batch rather than by the minibatch or the test set.
Training accumulates each minibatch's gradient over its micro-batches and
takes one optimizer step per minibatch; for a model without batch
statistics that is the minibatch gradient up to float summation order.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Module
from ..nn.losses import accuracy, cross_entropy
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from ..utils.batching import iterate_minibatches, micro_batches
from ..utils.rng import to_rng

__all__ = ["train_model", "evaluate_accuracy", "predict_logits"]


def train_model(model: Module, x: np.ndarray, y: np.ndarray, *,
                epochs: int, lr: float = 1e-3, momentum: float = 0.9,
                weight_decay: float = 5e-4, batch_size: int = 128,
                weights: np.ndarray | None = None,
                max_steps: int | None = None,
                rng: int | np.random.Generator | None = None) -> float:
    """Train ``model`` on a labeled array dataset; returns the final mean loss.

    Matches the paper's optimizer settings (SGD with momentum, weight decay
    5e-4, batch size 128).  ``max_steps`` optionally caps the total number
    of SGD steps — a CPU-scale budget knob applied identically to every
    method (the paper trains a fixed 200 epochs on a GPU).
    """
    if len(x) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = to_rng(rng)
    optimizer = SGD(model.parameters(), lr, momentum=momentum,
                    weight_decay=weight_decay)
    model.train()
    final_loss = 0.0
    steps = 0
    for _ in range(epochs):
        epoch_loss = 0.0
        batches = 0
        for idx in iterate_minibatches(len(x), batch_size, rng=rng):
            optimizer.zero_grad()
            batch_x, batch_y = x[idx], y[idx]
            batch_w = None if weights is None else weights[idx]
            # Each micro-batch's summed loss, scaled by 1/len(idx): the
            # parts add up to the minibatch mean of Eq. 4 and its gradient.
            scale = 1.0 / len(idx)
            for part in micro_batches(batch_x):
                logits = model(Tensor(batch_x[part]))
                loss = cross_entropy(
                    logits, batch_y[part], reduction="sum",
                    weights=None if batch_w is None else batch_w[part])
                loss = loss * scale
                loss.backward()
                epoch_loss += loss.item()
            optimizer.step()
            batches += 1
            steps += 1
            if max_steps is not None and steps >= max_steps:
                return epoch_loss / max(batches, 1)
        final_loss = epoch_loss / max(batches, 1)
    return final_loss


def predict_logits(model: Module, x: np.ndarray,
                   batch_size: int = 512) -> np.ndarray:
    """Class logits for an array of inputs, without recording the graph.

    Runs in micro-batches of at most ``batch_size`` rows.
    """
    model.eval()
    with no_grad():
        outputs = [model(Tensor(x[part])).data
                   for part in micro_batches(x, max_rows=batch_size)]
    model.train()
    return np.concatenate(outputs) if outputs else np.empty((0, model.num_classes))


def evaluate_accuracy(model: Module, x: np.ndarray, y: np.ndarray,
                      batch_size: int = 512) -> float:
    """Top-1 accuracy of the model on a labeled test set."""
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    return accuracy(predict_logits(model, x, batch_size), y)
