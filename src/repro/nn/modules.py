"""Neural-network modules on top of the :class:`repro.nn.Tensor` autograd.

Provides the layer vocabulary needed by the LightNAS supernet and by the MLP
latency/energy predictors:

* :class:`Linear`, :class:`Conv2d` (with groups, i.e. depthwise),
  :class:`BatchNorm2d`, activations, :class:`Dropout`,
  :class:`GlobalAvgPool`, :class:`Sequential`.
* :class:`SqueezeExcite` for the Table-4 SE ablation.

The :class:`Module` base class mirrors the small part of ``torch.nn.Module``
this project needs: recursive parameter collection, train/eval mode, and a
flat ``state_dict`` for save/load round trips.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import init, ops
from .tensor import Tensor, get_default_dtype

__all__ = [
    "Module", "Parameter", "Sequential", "Linear", "Conv2d",
    "BatchNorm2d", "ReLU6", "Dropout", "GlobalAvgPool", "SqueezeExcite",
]


class Parameter(Tensor):
    """A tensor that is registered as learnable by its owning module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter/submodule registration.

    Attribute assignment of a :class:`Parameter` or :class:`Module` registers
    it automatically, like PyTorch.  Buffers (non-learnable state such as
    batch-norm running statistics) are registered with
    :meth:`register_buffer`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state included in ``state_dict``.

        Floating-point buffers are stored in the engine's default compute
        dtype so float32 models keep running statistics in float32.
        """
        value = np.asarray(value)
        if value.dtype.kind == "f":
            value = value.astype(get_default_dtype(), copy=False)
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All learnable parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def set_trainable(self, trainable: bool) -> None:
        """Freeze (``False``) or unfreeze every parameter, clearing ``.grad``.

        A frozen parameter enters the tape as a constant: ops build no
        closure for inputs that are all frozen, and backward closures
        compute no contribution for it.  This is how a step differentiates
        with respect to a chosen set of tensors.
        """
        for p in self.parameters():
            p.requires_grad = trainable
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Flat mapping of parameter and buffer names to array copies."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, buf in self._buffers.items():
            state[f"{prefix}{name}"] = np.array(buf, copy=True)
        for name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        """Load a mapping produced by :meth:`state_dict` (strict)."""
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter {key} in state dict")
            if state[key].shape != param.data.shape:
                raise ValueError(f"shape mismatch for {key}")
            # in-place copy: p.data must keep its identity so compiled step
            # plans (repro.nn.plan) stay bound to the live parameter array
            np.copyto(param.data, np.asarray(state[key]))
        for name, buf in self._buffers.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing buffer {key} in state dict")
            value = np.asarray(state[key])
            if value.shape != buf.shape:
                raise ValueError(f"shape mismatch for {key}")
            np.copyto(buf, value)  # in place, like parameters
        for name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules; iterable and indexable like a list."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, in_features), in_features, out_features, rng),
            name="linear.weight",
        )
        self.bias = Parameter(init.zeros(out_features), name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, ops.transpose(self.weight))
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution (NCHW) with optional groups for depthwise kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = False,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size), fan_in, rng
            ),
            name="conv.weight",
        )
        self.bias = Parameter(init.zeros(out_channels), name="conv.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding,
            groups=self.groups,
        )


class BatchNorm2d(Module):
    """Batch normalisation over NCHW with running statistics.

    In training mode normalises with batch statistics and updates running
    estimates with momentum; in eval mode uses the running estimates, which
    is what makes a derived single-path network behave identically to the
    corresponding supernet path (the "equality principle" of FairNAS that
    LightNAS §3.3 enforces).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones(num_features), name="bn.gamma")
        self.beta = Parameter(init.zeros(num_features), name="bn.beta")
        self.register_buffer("running_mean", init.zeros(num_features))
        self.register_buffer("running_var", init.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            return ops.batch_norm_train(
                x, self.gamma, self.beta, self.eps, self.running_mean,
                self.running_var, self.momentum)
        mean = self.running_mean.reshape(1, -1, 1, 1)
        std = np.sqrt(self.running_var + self.eps).reshape(1, -1, 1, 1)
        normed = (x - Tensor(mean)) / Tensor(std)
        gamma = ops.reshape(self.gamma, (1, self.num_features, 1, 1))
        beta = ops.reshape(self.beta, (1, self.num_features, 1, 1))
        return normed * gamma + beta


class ReLU6(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu6(x)


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    The evaluation protocol of the paper (§4.1) inserts Dropout(0.2) before
    the classifier when retraining searched architectures.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.uniform(size=x.shape) < keep).astype(x.data.dtype)
        return ops.dropout_mask(x, mask, 1.0 / keep)


class GlobalAvgPool(Module):
    """``(N, C, H, W) -> (N, C)`` global average pooling."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.avg_pool_global(x)


class SqueezeExcite(Module):
    """Squeeze-and-Excitation channel attention (Hu et al., CVPR 2018).

    Used only by the Table-4 ablation: the paper applies SE to the last nine
    layers of the searched LightNets.
    """

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        hidden = max(1, channels // 4)  # reduction ratio 4
        self.channels = channels
        self.fc1 = Linear(channels, hidden, rng)
        self.fc2 = Linear(hidden, channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        squeezed = ops.avg_pool_global(x)  # (N, C)
        excite = ops.sigmoid(self.fc2(ops.relu(self.fc1(squeezed))))
        return x * ops.reshape(excite, (x.shape[0], self.channels, 1, 1))
