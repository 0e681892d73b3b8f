"""Macro-architecture (stage layout) of the LightNAS supernet.

Following the layer-wise convention of FBNet/ProxylessNAS that the paper
adopts (Figure 4), the backbone is a MobileNetV2-style stack:

* a fixed stem (3×3 conv, stride 2),
* a fixed first bottleneck layer (the paper: "the first one is fixed"),
* 21 searchable layers arranged in stages with fixed channel widths and
  strides,
* a fixed head (1×1 conv expansion, global pooling, classifier).

:class:`MacroConfig` captures the stage table together with the input
resolution; :meth:`MacroConfig.lightnas` reproduces the paper's L = 22
layout exactly (7^21 ≈ 5.6×10^17 architectures) and
:meth:`MacroConfig.tiny` provides a scaled-down geometry used by the unit
tests and the fast proxy-task search (same code path, smaller tensors —
this repo runs on a single CPU core).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["LayerGeometry", "MacroConfig"]


@dataclass(frozen=True)
class LayerGeometry:
    """Fixed geometry of one searchable layer.

    Attributes
    ----------
    in_channels / out_channels:
        Channel widths entering and leaving the layer.
    stride:
        Spatial stride (2 only on the first layer of a reduction stage).
    in_resolution:
        Square input feature-map resolution at this layer.
    """

    in_channels: int
    out_channels: int
    stride: int
    in_resolution: int

    @property
    def out_resolution(self) -> int:
        return self.in_resolution // self.stride


@dataclass(frozen=True)
class MacroConfig:
    """Stage layout of the supernet.

    Attributes
    ----------
    input_resolution:
        Side length of the (square) network input — 224 in the paper's
        mobile setting.
    stem_channels:
        Output channels of the fixed stride-2 stem convolution.
    first_layer_channels:
        Output channels of the fixed (non-searchable) first bottleneck.
    stages:
        Tuple of ``(out_channels, num_layers, first_stride)`` for the
        searchable stages.
    head_channels:
        Channels of the fixed 1×1 head expansion before pooling.
    num_classes:
        Classifier output width.
    """

    input_resolution: int = 224
    stem_channels: int = 32
    first_layer_channels: int = 16
    stages: Tuple[Tuple[int, int, int], ...] = (
        (24, 4, 2),
        (32, 4, 2),
        (64, 4, 2),
        (112, 4, 1),
        (184, 4, 2),
        (352, 1, 1),
    )
    head_channels: int = 1280
    num_classes: int = 1000

    # ------------------------------------------------------------------
    @classmethod
    def lightnas(cls, num_classes: int = 1000) -> "MacroConfig":
        """The paper's full search space: 21 searchable layers (L=22)."""
        return cls(num_classes=num_classes)

    @classmethod
    def tiny(cls, num_classes: int = 10, num_searchable_layers: int = 4) -> "MacroConfig":
        """Scaled-down geometry with identical structure for fast tests.

        Keeps the stage pattern (one reduction stage, one wide stage) but
        shrinks resolution and widths so a supernet step runs in
        milliseconds on one CPU core.
        """
        if num_searchable_layers < 2:
            raise ValueError("tiny macro needs at least 2 searchable layers")
        first = num_searchable_layers // 2
        rest = num_searchable_layers - first
        return cls(
            input_resolution=16,
            stem_channels=8,
            first_layer_channels=8,
            stages=((16, first, 2), (24, rest, 2)),
            head_channels=32,
            num_classes=num_classes,
        )

    # ------------------------------------------------------------------
    @property
    def num_searchable_layers(self) -> int:
        """L − 1 in the paper's notation (the searchable layers)."""
        return sum(num for _, num, _ in self.stages)

    def searchable_layers(self) -> List[LayerGeometry]:
        """Geometry of every searchable layer, in network order."""
        layers: List[LayerGeometry] = []
        # Stem halves the input resolution; the fixed first bottleneck is
        # stride 1 at stem resolution.
        resolution = self.input_resolution // 2
        channels = self.first_layer_channels
        for out_channels, num_layers, first_stride in self.stages:
            for i in range(num_layers):
                stride = first_stride if i == 0 else 1
                layers.append(
                    LayerGeometry(
                        in_channels=channels,
                        out_channels=out_channels,
                        stride=stride,
                        in_resolution=resolution,
                    )
                )
                resolution //= stride
                channels = out_channels
        return layers

    def scaled(self, width_mult: float = 1.0, resolution: int | None = None) -> "MacroConfig":
        """Width/resolution-scaled copy (the Figure-9 scaling baseline).

        Channel widths are rounded to multiples of 8, mirroring the
        MobileNetV2 width-multiplier convention.
        """

        def round8(c: float) -> int:
            return max(8, int(round(c / 8)) * 8)

        return MacroConfig(
            input_resolution=resolution or self.input_resolution,
            stem_channels=round8(self.stem_channels * width_mult),
            first_layer_channels=round8(self.first_layer_channels * width_mult),
            stages=tuple(
                (round8(ch * width_mult), num, stride) for ch, num, stride in self.stages
            ),
            head_channels=max(self.head_channels, round8(self.head_channels * width_mult)),
            num_classes=self.num_classes,
        )
