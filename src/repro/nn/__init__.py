"""Neural-network substrate: autodiff engine, layers, models, optimizers, losses.

The paper's experiments run on PyTorch; this package is our from-scratch
numpy replacement providing exactly the capabilities DECO needs — gradients
with respect to parameters *and* inputs, a ConvNet backbone with an exposed
encoder, the SGD optimizer, and the paper's loss functions.
"""

from . import functional, init, kernels
from .convnet import ConvNet
from .layers import (AvgPool2d, Conv2d, Flatten, InstanceNorm2d, Linear, Module,
                     ReLU, Sequential, frozen_parameters)
from .losses import (accuracy, cross_entropy, feature_discrimination_loss,
                     gradient_distance)
from .optim import SGD, Optimizer
from .tensor import Tensor, is_grad_enabled, no_grad, tensor

__all__ = [
    "Tensor", "tensor", "no_grad", "is_grad_enabled",
    "functional", "init", "kernels", "frozen_parameters",
    "Module", "Sequential", "Linear", "Conv2d", "InstanceNorm2d", "ReLU",
    "AvgPool2d", "Flatten",
    "ConvNet",
    "Optimizer", "SGD",
    "cross_entropy", "accuracy", "feature_discrimination_loss", "gradient_distance",
]
