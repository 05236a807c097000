"""Layer/module abstractions over the functional ops.

Mirrors the small subset of ``torch.nn`` that the paper's experiments need:
``Linear``, ``Conv2d``, ``InstanceNorm2d``, ``ReLU``, average pooling, and
``Sequential`` containers, all hanging off a minimal :class:`Module` base
with parameter traversal and state-dict (de)serialization.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "frozen_parameters",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "InstanceNorm2d",
    "ReLU",
    "AvgPool2d",
    "Flatten",
]


class Module:
    """Base class providing parameter traversal and serialization."""

    #: Whether ``forward`` takes parameters stacked along a leading lane
    #: axis, lane ``t`` of each parameter transforming batch rows
    #: ``[t*n, (t+1)*n)`` of its input (the Eq. 7 ±ε passes run this way).
    #: A module holding no tensor of its own need not declare it: it runs
    #: lanes when all its children do (:meth:`runs_lanes`).
    takes_lanes = False

    def __init__(self) -> None:
        self.training = True

    def runs_lanes(self) -> bool:
        """Whether a forward pass of this module runs lane-stacked
        parameters correctly (see :attr:`takes_lanes`)."""
        if self.takes_lanes:
            return True
        if any(isinstance(v, Tensor) for v in self.__dict__.values()):
            return False
        return all(child.runs_lanes() for child in self.children())

    # -- forward ---------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # -- traversal -------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self.children():
            yield from child.modules()

    def _named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Every tensor this module and its children hold, frozen or not."""
        for name, value in self.__dict__.items():
            if isinstance(value, Tensor):
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value._named_tensors(prefix + name + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_tensors(f"{prefix}{name}.{i}.")

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in self._named_tensors(prefix):
            if value.requires_grad:
                yield name, value

    def parameters(self) -> list[Tensor]:
        """The tensors that currently require a gradient, in
        :meth:`named_parameters` order.

        The module tree is walked once, on the first call: which tensors a
        module holds is fixed once it is built (training rebinds their
        ``data``, never the tensors).  ``requires_grad`` is read at every
        call, so the list is empty inside :func:`frozen_parameters`.  A
        ``copy.deepcopy`` copies the list along with the tensors it names.
        """
        tensors = self.__dict__.get("_tensors")
        if tensors is None:
            tensors = self._tensors = [t for _, t in self._named_tensors()]
        return [p for p in tensors if p.requires_grad]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes & grads ----------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- serialization ----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{p.data.shape} vs {state[name].shape}")
            p.data = np.array(state[name], dtype=np.float32, copy=True)

    def copy_(self, other: "Module") -> None:
        """Copy parameter values from a structurally identical module."""
        self.load_state_dict(other.state_dict())


@contextlib.contextmanager
def frozen_parameters(module: "Module"):
    """Temporarily set ``requires_grad=False`` on every parameter.

    Inside the block, forward passes still build the graph for any
    grad-requiring *inputs*, but all parameter-gradient work (conv ``dw``
    reductions, norm gamma/beta sums, bias sums) is skipped.  This is the
    cheap way to compute input-only gradients — e.g. the finite-difference
    passes of Eq. (7), which only need ``grad_X`` yet previously paid for
    every parameter gradient as well.
    """
    params = module.parameters()
    for p in params:
        p.requires_grad = False
    try:
        yield params
    finally:
        for p in params:
            p.requires_grad = True


class Sequential(Module):
    """Chains modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class Linear(Module):
    """Affine layer with Kaiming-uniform initialized (out, in) weight."""

    takes_lanes = True

    def __init__(self, in_features: int, out_features: int, bias: bool = True, *,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.kaiming_uniform(rng, (out_features, in_features),
                                                  fan_in=in_features), requires_grad=True)
        self.bias = (Tensor(init.uniform_fan(rng, (out_features,), fan_in=in_features),
                            requires_grad=True) if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2D convolution layer (square kernels)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            init.kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size),
                                 fan_in=fan_in), requires_grad=True)
        self.bias = (Tensor(init.uniform_fan(rng, (out_channels,), fan_in=fan_in),
                            requires_grad=True) if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class InstanceNorm2d(Module):
    """Affine instance normalization (the ConvNet default in DC/DECO)."""

    def __init__(self, num_channels: int, eps: float = 1e-5, affine: bool = True) -> None:
        super().__init__()
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Tensor(np.ones(num_channels, dtype=np.float32), requires_grad=True) if affine else None
        self.beta = Tensor(np.zeros(num_channels, dtype=np.float32), requires_grad=True) if affine else None

    def forward(self, x: Tensor) -> Tensor:
        return F.instance_norm2d(x, self.gamma, self.beta, eps=self.eps)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)


class Flatten(Module):
    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)
