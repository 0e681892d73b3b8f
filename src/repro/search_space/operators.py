"""Operator vocabulary of the LightNAS search space (§3.1).

The space is built on MobileNetV2 inverted-residual blocks: every searchable
layer chooses among ``K = 7`` candidates — MBConv with kernel size
``∈ {3, 5, 7}`` × expansion ratio ``∈ {3, 6}``, plus the computation-free
``SkipConnect`` that lets the search shrink the network depth.

:class:`OperatorSpec` is the *description* of a candidate (used by the
hardware models and the architecture encoding); :func:`build_operator`
materialises a candidate as a trainable :class:`repro.nn.Module` for a given
layer geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .. import nn

__all__ = [
    "OperatorSpec",
    "LIGHTNAS_OPERATORS",
    "SKIP_INDEX",
    "build_operator",
    "MBConv",
    "SkipConnect",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Immutable description of one operator candidate.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"mbconv_k5_e6"`` or ``"skip"``.
    kernel_size:
        Depthwise kernel size (0 for SkipConnect).
    expansion:
        Inverted-bottleneck expansion ratio (0 for SkipConnect).
    """

    name: str
    kernel_size: int
    expansion: int

    @property
    def is_skip(self) -> bool:
        return self.kernel_size == 0

    def __str__(self) -> str:
        return self.name


def _mbconv_spec(kernel: int, expansion: int) -> OperatorSpec:
    return OperatorSpec(name=f"mbconv_k{kernel}_e{expansion}", kernel_size=kernel,
                        expansion=expansion)


#: The paper's K = 7 candidates, in a fixed canonical order.  ``SKIP_INDEX``
#: is the index of SkipConnect within this list.
LIGHTNAS_OPERATORS: List[OperatorSpec] = [
    _mbconv_spec(3, 3),
    _mbconv_spec(3, 6),
    _mbconv_spec(5, 3),
    _mbconv_spec(5, 6),
    _mbconv_spec(7, 3),
    _mbconv_spec(7, 6),
    OperatorSpec(name="skip", kernel_size=0, expansion=0),
]

SKIP_INDEX: int = 6


class MBConv(nn.Module):
    """MobileNetV2 inverted residual block (expand → depthwise → project).

    Residual connection is applied when the block is stride-1 and preserves
    the channel count, matching the reference MobileNetV2 design.  An
    optional :class:`repro.nn.SqueezeExcite` block after the depthwise stage
    implements the Table-4 SE ablation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        expansion: int,
        stride: int,
        rng: np.random.Generator,
        with_se: bool = False,
    ) -> None:
        super().__init__()
        if stride not in (1, 2):
            raise ValueError(f"MBConv stride must be 1 or 2, got {stride}")
        if kernel_size % 2 == 0:
            raise ValueError(f"MBConv kernel size must be odd, got {kernel_size}")
        hidden = in_channels * expansion
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels

        self.expand = nn.Sequential(
            nn.Conv2d(in_channels, hidden, 1, rng),
            nn.BatchNorm2d(hidden),
            nn.ReLU6(),
        )
        depthwise_layers = [
            nn.Conv2d(hidden, hidden, kernel_size, rng, stride=stride,
                      padding=kernel_size // 2, groups=hidden),
            nn.BatchNorm2d(hidden),
            nn.ReLU6(),
        ]
        if with_se:
            depthwise_layers.append(nn.SqueezeExcite(hidden, rng))
        self.depthwise = nn.Sequential(*depthwise_layers)
        self.project = nn.Sequential(
            nn.Conv2d(hidden, out_channels, 1, rng),
            nn.BatchNorm2d(out_channels),
        )

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        out = self.project(self.depthwise(self.expand(x)))
        if self.use_residual:
            out = out + x
        return out


class SkipConnect(nn.Module):
    """The computation-free candidate.

    A pure identity when the layer keeps shape; at stage boundaries (stride 2
    or a channel change) identity is ill-typed, so a minimal 1×1
    strided-projection keeps the supernet well-formed — the standard
    treatment in layer-wise spaces (FBNet uses the same convention).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.is_identity = stride == 1 and in_channels == out_channels
        if not self.is_identity:
            self.projection = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, rng, stride=stride),
                nn.BatchNorm2d(out_channels),
            )

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        if self.is_identity:
            return x
        return self.projection(x)


def build_operator(
    spec: OperatorSpec,
    in_channels: int,
    out_channels: int,
    stride: int,
    rng: np.random.Generator,
    with_se: bool = False,
) -> nn.Module:
    """Materialise ``spec`` as a trainable module for one layer geometry."""
    if spec.is_skip:
        return SkipConnect(in_channels, out_channels, stride, rng)
    return MBConv(
        in_channels, out_channels, spec.kernel_size, spec.expansion, stride, rng,
        with_se=with_se,
    )
