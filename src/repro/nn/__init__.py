"""`repro.nn` — a from-scratch numpy autodiff / neural-network substrate.

This subpackage replaces PyTorch for the LightNAS reproduction: a taped
reverse-mode :class:`Tensor`, the differentiable ops required by the paper's
equations (including grouped/depthwise convolution and the Gumbel-Softmax
straight-through machinery), module containers, and the exact optimizers the
paper's training recipes call for.
"""

from . import functional, init, ops, optim, plan, profiler
from .modules import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    GlobalAvgPool,
    Linear,
    Module,
    Parameter,
    ReLU6,
    Sequential,
    SqueezeExcite,
)
from .optim import SGD, Adam, CosineSchedule, GradientAscent, Optimizer
from .plan import PlanError, StepProgram, plans
from .tensor import (
    Tensor,
    dtype_scope,
    get_default_dtype,
    no_grad,
    set_default_dtype,
    tensor_allocations,
)

__all__ = [
    "Tensor", "no_grad", "functional", "ops", "optim", "init",
    "profiler", "set_default_dtype", "get_default_dtype", "dtype_scope",
    "tensor_allocations",
    "Module", "Parameter", "Sequential", "Linear", "Conv2d",
    "BatchNorm2d", "ReLU6", "Dropout", "GlobalAvgPool", "SqueezeExcite",
    "Optimizer", "SGD", "Adam", "GradientAscent", "CosineSchedule",
    "plan", "PlanError", "StepProgram", "plans",
]
