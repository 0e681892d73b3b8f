"""Model-scaling baseline (Figure 9): MobileNetV2 width/resolution scaling.

The alternative to NAS for hitting a latency target is to take a fixed
reference network — MobileNetV2, i.e. the uniform ``mbconv_k3_e6`` stack in
our space — and scale its width multiplier and/or input resolution until it
fits the budget.  :class:`ScalingBaseline` binary-searches the scale factor
against the simulated device and evaluates the scaled model with the
accuracy oracle, producing the scaling curves that LightNets dominate in
Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hardware.device import DeviceProfile, XAVIER_MAXN
from ..hardware.latency import LatencyModel
from ..proxy.accuracy_model import AccuracyOracle
from ..search_space.macro import MacroConfig
from ..search_space.space import Architecture, SearchSpace

__all__ = ["ScaledModel", "ScalingBaseline"]


@dataclass(frozen=True)
class ScaledModel:
    """One point on a scaling curve."""

    width_mult: float
    resolution: int
    latency_ms: float
    top1: float
    top5: float


class ScalingBaseline:
    """Width/resolution scaling of the uniform MobileNetV2-like network."""

    name = "mobilenetv2-scaling"

    #: operator index of ``mbconv_k3_e6`` in the canonical vocabulary —
    #: MobileNetV2 stacks exactly this block.
    UNIFORM_OP = 1

    def __init__(self, device: DeviceProfile = XAVIER_MAXN,
                 seed: int = 0) -> None:
        self.base_macro = MacroConfig.lightnas()
        self.device = device
        self.seed = seed

    # ------------------------------------------------------------------
    def _evaluate_scale(self, width_mult: float, resolution: int,
                        epochs: int = 360) -> ScaledModel:
        macro = self.base_macro.scaled(width_mult=width_mult, resolution=resolution)
        space = SearchSpace(macro)
        arch = Architecture(tuple([self.UNIFORM_OP] * space.num_layers))
        latency = LatencyModel(space, self.device).latency_ms(arch)
        oracle = AccuracyOracle(space, width_mult=width_mult, resolution=resolution,
                                seed=self.seed)
        result = oracle.evaluate(arch, epochs=epochs)
        return ScaledModel(width_mult, resolution, latency, result.top1, result.top5)

    def reference(self, epochs: int = 360) -> ScaledModel:
        """The unscaled MobileNetV2 analogue (Table 2's manual baseline)."""
        return self._evaluate_scale(1.0, self.base_macro.input_resolution,
                                    epochs=epochs)

    # ------------------------------------------------------------------
    def fit_width_to_latency(self, target_ms: float,
                             epochs: int = 360) -> ScaledModel:
        """Binary-search the width multiplier to meet a latency target
        (within 0.05 ms)."""
        low, high = 0.25, 2.5
        resolution = self.base_macro.input_resolution
        for _ in range(30):
            mid = 0.5 * (low + high)
            latency = self._evaluate_scale(mid, resolution, epochs).latency_ms
            if abs(latency - target_ms) <= 0.05:
                break
            if latency > target_ms:
                high = mid
            else:
                low = mid
        return self._evaluate_scale(0.5 * (low + high), resolution, epochs)

    def fit_resolution_to_latency(self, target_ms: float,
                                  epochs: int = 360) -> ScaledModel:
        """Pick the input resolution (multiple of 32) closest to the target."""
        candidates = [r for r in range(96, 321, 32)]
        best: Optional[ScaledModel] = None
        for resolution in candidates:
            model = self._evaluate_scale(1.0, resolution, epochs)
            if model.latency_ms <= target_ms and (
                best is None or model.top1 > best.top1
            ):
                best = model
        return best or self._evaluate_scale(1.0, candidates[0], epochs)
