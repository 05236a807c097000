"""The ConvNet backbone used throughout the paper's experiments.

The architecture follows the dataset-condensation literature (DC/DSA/DM) and
[45]: ``depth`` blocks of Conv3x3 -> InstanceNorm -> ReLU -> AvgPool2, then a
linear classifier head.  The encoder output (the flattened activations before
the classifier) is exposed via :meth:`ConvNet.features` because the feature
discrimination loss (Eq. 8) operates on ``z = f_theta(x)``.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import (AvgPool2d, Conv2d, Flatten, InstanceNorm2d, Linear,
                     Module, ReLU, Sequential)
from .tensor import Tensor

__all__ = ["ConvNet"]


class ConvNet(Module):
    """Conv-Norm-ReLU-Pool backbone with a linear classifier.

    Parameters
    ----------
    in_channels:
        Number of image channels.
    num_classes:
        Output dimensionality of the classifier head.
    image_size:
        Input spatial resolution (square); must be divisible by
        ``2 ** depth``.
    width:
        Number of filters in every convolution block.
    depth:
        Number of Conv-Norm-ReLU-Pool blocks.
    """

    #: Every block runs through :func:`repro.nn.functional.conv_block` and
    #: the head is a :class:`Linear`; both take lane-stacked parameters.
    takes_lanes = True

    def __init__(self, in_channels: int, num_classes: int, image_size: int, *,
                 width: int = 32, depth: int = 3,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if image_size % (2 ** depth):
            raise ValueError(f"image_size={image_size} not divisible by 2^{depth}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.image_size = image_size
        self.width = width
        self.depth = depth

        blocks: list[Module] = []
        channels = in_channels
        for _ in range(depth):
            blocks.extend([
                Conv2d(channels, width, 3, padding=1, rng=rng),
                InstanceNorm2d(width),
                ReLU(),
                AvgPool2d(2),
            ])
            channels = width
        blocks.append(Flatten())
        self.encoder = Sequential(*blocks)

        spatial = image_size // (2 ** depth)
        self.feature_dim = width * spatial * spatial
        self.classifier = Linear(self.feature_dim, num_classes, rng=rng)

    def features(self, x: Tensor) -> Tensor:
        """Return the encoder embedding ``f_theta(x)`` (pre-classifier).

        Each Conv -> Norm -> ReLU -> Pool block of :attr:`encoder` runs as
        one :func:`repro.nn.functional.conv_block` node.
        """
        layers = self.encoder.layers
        for i in range(0, len(layers) - 1, 4):
            conv, norm, _, pool = layers[i:i + 4]
            x = F.conv_block(x, conv.weight, conv.bias, norm.gamma, norm.beta,
                             stride=conv.stride, padding=conv.padding,
                             eps=norm.eps, pool=pool.kernel_size)
        return layers[-1](x)

    def forward(self, x: Tensor) -> Tensor:
        """Return class logits for an (N, C, H, W) batch."""
        return self.classifier(self.features(x))

    def clone(self, rng: np.random.Generator | None = None) -> "ConvNet":
        """Return a structurally identical network with copied weights."""
        other = ConvNet(self.in_channels, self.num_classes, self.image_size,
                        width=self.width, depth=self.depth,
                        rng=rng or np.random.default_rng())
        other.load_state_dict(self.state_dict())
        return other
