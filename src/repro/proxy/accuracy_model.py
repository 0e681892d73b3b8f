"""ImageNet-accuracy oracle — the stand-in for "train 360 epochs on ImageNet".

This reproduction runs on one CPU core without ImageNet, so the *evaluation*
step of the paper (retrain each searched architecture from scratch for 360
epochs on 4 GPUs) is replaced by a calibrated analytic oracle.  What the
benchmarks need from this substitution is the *geometry* of Table 2 / Figures
3 & 9, namely:

* accuracy is monotone and saturating in network capacity,
* capacity value is (mostly) resolution-independent while latency cost is
  strongly resolution-dependent — the structural fact that makes searched,
  layer-diverse networks beat uniform MobileNetV2-style stacks at matched
  latency (the paper's layer-diversity argument, Figure 6),
* SkipConnect contributes nothing (so an all-skip collapse scores terribly,
  Figure 3), SE modules add a small bonus (Table 4), quick 50-epoch training
  scores ≈7 points below the full 360-epoch protocol (Figures 3 & 9), and
  width/resolution scaling multiplies capacity sub-linearly (Figure 9).

The logistic capacity→top-1 map is anchored so that the uniform
all-``mbconv_k3_e6`` network (our MobileNetV2 analogue) and the strongest
in-space networks land in the paper's 72–77 % top-1 band, and the top-5 map
``top5 = 59.9 + 0.432·top1`` interpolates the paper's (72.0, 91.0) and
(76.4, 92.9) pairs.

A deterministic per-architecture jitter (hash-seeded, ±0.15) models
retraining variance without breaking reproducibility.  The oracle also
exposes a differentiable pathway (:meth:`AccuracyOracle.value_matrix` plus
:meth:`AccuracyOracle.differentiable_loss`) so the search engines can use it
as a drop-in ``L_valid`` in fast "surrogate" mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nn
from ..search_space.space import Architecture, SearchSpace

__all__ = ["AccuracyOracle", "EvalResult"]


@dataclass(frozen=True)
class EvalResult:
    """Oracle evaluation of one architecture."""

    top1: float
    top5: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.top1 <= 100.0 and 0.0 <= self.top5 <= 100.0):
            raise ValueError("accuracies must be percentages")


class AccuracyOracle:
    """Capacity-based ImageNet accuracy surrogate.

    Parameters
    ----------
    space:
        Search space whose layer geometry defines per-layer capacity values.
    width_mult / resolution:
        Scaling factors of the macro relative to the reference mobile
        setting (width 1.0, 224 px); used by the Figure-9 scaling baseline.
    seed:
        Folded into the per-architecture jitter.
    """

    #: logistic anchor: top1 = FLOOR + RANGE / (1 + exp(-(S - mid)/scale)).
    #: MID/SCALE are calibrated for the paper's 21-layer space and scale
    #: linearly with the number of searchable layers, so scaled-down test
    #: spaces keep a live accuracy gradient instead of saturating.
    FLOOR = 55.0
    RANGE = 22.5
    MID = 22.0
    SCALE = 2.2
    REFERENCE_LAYERS = 21

    #: per-layer capacity: base 1.0 per non-skip op, plus kernel/expansion
    #: bonuses that depend on where the layer sits.  Large kernels pay off at
    #: high spatial resolution (there is context to aggregate) while large
    #: expansion ratios pay off in the deep, many-channel stages — this is
    #: the structural reason "layer diversity helps to strike the right
    #: balance" (§3.1 / Figure 6): a uniform stack (MobileNetV2) necessarily
    #: misallocates, which is what searched networks exploit in Table 2 and
    #: Figure 9.  The high/low split is at the geometric-mean resolution of
    #: the searchable layers.
    KERNEL_BONUS_HIGHRES = 0.12   # per kernel step (3→5→7) at high resolution
    KERNEL_BONUS_LOWRES = 0.03
    EXPANSION_BONUS_HIGHRES = 0.10  # expansion 6 over 3, early layers
    EXPANSION_BONUS_LOWRES = 0.30   # expansion 6 over 3, deep layers

    #: protocol / module adjustments
    QUICK_TRAIN_PENALTY = 7.0   # 50-epoch protocol vs full 360-epoch
    SE_BONUS = 0.45             # Squeeze-and-Excitation on the last 9 layers
    DIVERSITY_BONUS = 0.30      # scaled by the operator-histogram entropy
    JITTER = 0.15               # deterministic retraining variance (± bound)

    TOP5_INTERCEPT = 59.9
    TOP5_SLOPE = 0.432

    def __init__(
        self,
        space: SearchSpace,
        width_mult: float = 1.0,
        resolution: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if width_mult <= 0:
            raise ValueError("width_mult must be positive")
        self.space = space
        self.width_mult = width_mult
        self.resolution = resolution or space.macro.input_resolution
        self.seed = seed
        # Sub-linear returns on width/resolution scaling: reallocating the
        # same latency budget across operators (what NAS does) buys more
        # capacity than uniformly inflating a fixed design (Figure 9).
        self._scale = width_mult ** 0.15 * (self.resolution / 224.0) ** 0.25
        depth_ratio = space.num_layers / self.REFERENCE_LAYERS
        self._logistic_mid = self.MID * depth_ratio
        self._logistic_scale = self.SCALE * depth_ratio
        # the table depends only on the space geometry, so every capacity()
        # and differentiable_loss() call shares one read-only copy
        self._values = self._build_value_matrix()
        self._values.setflags(write=False)

    # ------------------------------------------------------------------
    # Capacity model
    # ------------------------------------------------------------------
    def value_matrix(self) -> np.ndarray:
        """Per-(layer, operator) capacity contribution, shape ``(L, K)``
        (read-only; built once per oracle)."""
        return self._values

    def _build_value_matrix(self) -> np.ndarray:
        geoms = self.space.layer_geometries()
        resolutions = np.array([g.in_resolution for g in geoms], dtype=np.float64)
        threshold = float(np.sqrt(resolutions.max() * resolutions.min()))
        table = np.zeros((self.space.num_layers, self.space.num_operators))
        for l, res in enumerate(resolutions):
            high = res >= threshold
            kernel_bonus = self.KERNEL_BONUS_HIGHRES if high else self.KERNEL_BONUS_LOWRES
            expansion_bonus = (
                self.EXPANSION_BONUS_HIGHRES if high else self.EXPANSION_BONUS_LOWRES
            )
            for k, spec in enumerate(self.space.operators):
                if spec.is_skip:
                    continue
                kernel_steps = (spec.kernel_size - 3) / 2
                expansion_step = 1.0 if spec.expansion >= 6 else 0.0
                table[l, k] = (
                    1.0 + kernel_bonus * kernel_steps + expansion_bonus * expansion_step
                )
        return table

    def capacity(self, arch: Architecture) -> float:
        """Scalar capacity score S of an architecture."""
        self.space.validate(arch)
        table = self.value_matrix()
        return float(
            table[np.arange(self.space.num_layers), list(arch.op_indices)].sum()
            * self._scale
        )

    def _diversity(self, arch: Architecture) -> float:
        """Normalised entropy of the operator histogram, in [0, 1]."""
        counts = np.bincount(arch.op_indices, minlength=self.space.num_operators)
        probs = counts[counts > 0] / counts.sum()
        if len(probs) <= 1:
            return 0.0
        return float(-(probs * np.log(probs)).sum() / np.log(self.space.num_operators))

    def _jitter(self, arch: Architecture) -> float:
        """Deterministic retraining-variance jitter in [-JITTER, JITTER]."""
        digest = hashlib.md5(
            (str(arch.op_indices) + f":{self.seed}").encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "little") / 2 ** 64
        return (2.0 * unit - 1.0) * self.JITTER

    # ------------------------------------------------------------------
    # Evaluation API
    # ------------------------------------------------------------------
    def top1_from_capacity(self, capacity: float) -> float:
        """The logistic capacity → top-1 map (no bonuses, no jitter)."""
        return self.FLOOR + self.RANGE / (
            1.0 + np.exp(-(capacity - self._logistic_mid) / self._logistic_scale))

    def evaluate(
        self,
        arch: Architecture,
        epochs: int = 360,
        with_se: bool = False,
    ) -> EvalResult:
        """Top-1/top-5 "as if retrained from scratch" (Table-2 protocol).

        ``epochs=50`` applies the quick-evaluation penalty used by the
        motivational and scaling experiments (Figures 3 and 9);
        ``with_se=True`` adds the Table-4 SE bonus.
        """
        top1 = self.top1_from_capacity(self.capacity(arch))
        top1 += self.DIVERSITY_BONUS * self._diversity(arch)
        if with_se:
            top1 += self.SE_BONUS
        if epochs < 360:
            top1 -= self.QUICK_TRAIN_PENALTY * (360 - epochs) / 310.0
        top1 += self._jitter(arch)
        top1 = float(np.clip(top1, 0.1, 99.0))
        top5 = float(np.clip(self.TOP5_INTERCEPT + self.TOP5_SLOPE * top1, top1, 99.9))
        return EvalResult(top1=top1, top5=top5)

    # ------------------------------------------------------------------
    # Differentiable pathway (surrogate L_valid for fast search)
    # ------------------------------------------------------------------
    def differentiable_loss(self, p_bar: nn.Tensor) -> nn.Tensor:
        """A differentiable validation loss over the gate matrix ``P̄``.

        ``p_bar`` is the (L, K) binarised-with-STE gate matrix of Eq. (9),
        or an ``(S, L, K)`` stack of them (one loss per slot);
        the loss decreases as the expected capacity ``Σ P̄·V`` increases,
        through the same saturating logistic as :meth:`evaluate`, so its
        gradient prefers exactly the operators the oracle rewards.  Returned
        on a scale comparable to a cross-entropy loss (≈0–2) so that the
        λ-weighted latency term of Eq. (10) interacts with it the same way
        it interacts with a real validation loss.
        """
        table = nn.Tensor(self.value_matrix() * self._scale)
        capacity = (p_bar * table).sum(axis=(-2, -1))
        z = (capacity - self._logistic_mid) * (1.0 / self._logistic_scale)
        # top1/100 ∈ (0.55, 0.775); loss = 1 − top1/100 ∈ (0.225, 0.45)
        top1_frac = (
            self.FLOOR / 100.0
            + (self.RANGE / 100.0) / (nn.ops.exp(-z) + 1.0)
        )
        return (1.0 - top1_frac) * 4.0
