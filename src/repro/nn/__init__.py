"""Neural-network substrate: autodiff engine, layers, models, optimizers, losses.

The paper's experiments run on PyTorch; this package is our from-scratch
numpy replacement providing exactly the capabilities DECO needs — gradients
with respect to parameters *and* inputs, a ConvNet backbone with an exposed
encoder, SGD/Adam optimizers, and the paper's loss functions.
"""

from . import functional, init, kernels
from .convnet import ConvNet
from .layers import (AvgPool2d, Conv2d, Flatten, Identity, InstanceNorm2d,
                     LeakyReLU, Linear, Module, ReLU, Sequential, Sigmoid,
                     Tanh, frozen_parameters)
from .losses import (accuracy, cross_entropy, feature_discrimination_loss,
                     gradient_distance, mse_loss)
from .optim import SGD, Adam, CosineLR, Optimizer, StepLR
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack, tensor, where

__all__ = [
    "Tensor", "tensor", "no_grad", "is_grad_enabled", "concatenate", "stack", "where",
    "functional", "init", "kernels", "frozen_parameters",
    "Module", "Sequential", "Linear", "Conv2d", "InstanceNorm2d", "ReLU",
    "LeakyReLU", "Tanh", "Sigmoid", "AvgPool2d", "Flatten", "Identity",
    "ConvNet",
    "Optimizer", "SGD", "Adam", "StepLR", "CosineLR",
    "cross_entropy", "accuracy", "feature_discrimination_loss", "gradient_distance",
    "mse_loss",
]
