"""Parameter initialization schemes.

Initialization matters in this reproduction because DECO randomizes the model
at every condensation step ("multiple randomized models for a single step of
gradient matching"); these helpers are called for both the initial build and
those re-randomizations.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kaiming_uniform",
    "uniform_fan",
    "reinitialize",
]


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], *,
                    fan_in: int, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """Kaiming (He) uniform initialization for ReLU networks."""
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def uniform_fan(rng: np.random.Generator, shape: tuple[int, ...], *,
                fan_in: int) -> np.ndarray:
    """The torch-style bias initialization U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def reinitialize(module, rng: np.random.Generator) -> None:
    """Re-randomize every parameter of ``module`` in place.

    Convolution/linear weights get Kaiming-uniform draws; biases get the
    fan-in uniform; instance-norm affine parameters reset to (1, 0).  This is
    the "randomize initial model parameters" step of Algorithm 1.
    """
    from .layers import Conv2d, InstanceNorm2d, Linear

    for sub in module.modules():
        if isinstance(sub, Conv2d):
            fan_in = sub.in_channels * sub.kernel_size * sub.kernel_size
            sub.weight.data = kaiming_uniform(rng, sub.weight.shape, fan_in=fan_in)
            if sub.bias is not None:
                sub.bias.data = uniform_fan(rng, sub.bias.shape, fan_in=fan_in)
        elif isinstance(sub, Linear):
            sub.weight.data = kaiming_uniform(rng, sub.weight.shape, fan_in=sub.in_features)
            if sub.bias is not None:
                sub.bias.data = uniform_fan(rng, sub.bias.shape, fan_in=sub.in_features)
        elif isinstance(sub, InstanceNorm2d):
            if sub.gamma is not None:
                sub.gamma.data = np.ones_like(sub.gamma.data)
            if sub.beta is not None:
                sub.beta.data = np.zeros_like(sub.beta.data)
