"""Differentiable NAS baselines: DARTS, SNAS, FBNet, ProxylessNAS.

These are the methods LightNAS is compared against in Table 1/2 and the
λ-sweep motivation of Figure 3.  All four share the same skeleton — relax
the discrete choice per layer, descend a loss on the relaxation — and
differ in exactly two places, which the :class:`GradientNAS` base class
exposes as hooks:

* **the relaxation** (how α becomes per-layer operator weights, and how
  many paths that activates):

  - DARTS (Eq. 1): deterministic row-softmax ⇒ all K paths active;
  - SNAS: soft Gumbel-Softmax sample ⇒ all K paths active;
  - FBNet: soft Gumbel-Softmax sample ⇒ all K paths active;
  - ProxylessNAS: two sampled paths with renormalised weights ⇒ 2 paths.

* **the latency term**: DARTS/SNAS are hardware-agnostic; FBNet and
  ProxylessNAS add the *fixed-coefficient* penalty of Eq. (3),
  ``λ · LAT(α)``, which is precisely the hyper-parameter LightNAS replaces
  with a learned multiplier — running these baselines across a λ grid
  reproduces the trial-and-error sweep of §2.2 / Figure 3.

The search operates in surrogate mode (differentiable accuracy oracle) so
that full-space baseline sweeps are feasible on one CPU core; the multi-path
memory cost is still accounted through ``search_paths_per_step``, which the
Table-1 and ablation benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..core.gumbel import TemperatureSchedule, alpha_optimizer
from ..core.result import SearchResult, SearchTrajectory
from ..predictor.mlp import MLPPredictor
from ..proxy.accuracy_model import AccuracyOracle
from ..search_space.space import Architecture, SearchSpace

__all__ = [
    "GradientNASConfig",
    "GradientNAS",
    "DARTSSearch",
    "SNASSearch",
    "FBNetSearch",
    "ProxylessSearch",
]


@dataclass
class GradientNASConfig:
    """Shared configuration of the gradient-based baselines."""

    space: SearchSpace = field(default_factory=SearchSpace)
    epochs: int = 90
    steps_per_epoch: int = 50
    #: fixed trade-off coefficient λ of Eq. (3); ignored by DARTS/SNAS
    latency_lambda: float = 0.0
    tau_initial: float = 5.0
    tau_floor: float = 0.1
    seed: int = 0


class GradientNAS:
    """Skeleton of a differentiable architecture search baseline.

    Subclasses override :meth:`relax` (and set :attr:`name`,
    :attr:`paths_per_layer`, :attr:`uses_latency`).
    """

    name = "gradient-nas"
    paths_per_layer = 1
    uses_latency = False

    def __init__(
        self,
        config: GradientNASConfig,
        oracle: Optional[AccuracyOracle] = None,
        predictor: Optional[MLPPredictor] = None,
    ) -> None:
        self.config = config
        self.space = config.space
        self.rng = np.random.default_rng(config.seed)
        self.oracle = oracle or AccuracyOracle(self.space)
        self.predictor = predictor
        if self.uses_latency and config.latency_lambda > 0 and predictor is None:
            raise ValueError(f"{self.name} with λ>0 needs a latency predictor")
        self.schedule = TemperatureSchedule(
            config.tau_initial, config.tau_floor, config.epochs
        )

    # ------------------------------------------------------------------
    def relax(self, alpha: nn.Tensor, epoch: int) -> nn.Tensor:
        """Map α to per-layer operator weights (rows on the simplex)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _latency_tensor(self, weights: nn.Tensor) -> nn.Tensor:
        flat = nn.ops.reshape(weights, (1, weights.shape[0] * weights.shape[1]))
        return self.predictor.predict_tensor(flat)[0]

    def search(self, verbose: bool = False) -> SearchResult:
        """Run the baseline search; λ stays fixed throughout (Eq. 3)."""
        cfg = self.config
        alpha = nn.Parameter(self.space.uniform_alpha(), name="alpha")
        optimizer = alpha_optimizer(alpha)
        trajectory = SearchTrajectory()
        steps = 0
        for epoch in range(cfg.epochs):
            for _ in range(cfg.steps_per_epoch):
                weights = self.relax(alpha, epoch)
                loss = self.oracle.differentiable_loss(weights)
                if self.uses_latency and cfg.latency_lambda > 0:
                    loss = loss + self._latency_tensor(weights) * cfg.latency_lambda
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                steps += 1
            arch = Architecture.from_alpha(alpha.data)
            predicted = (
                self.predictor.predict_arch(arch) if self.predictor is not None else 0.0
            )
            trajectory.record(epoch, predicted, cfg.latency_lambda, float(loss.data),
                              self.schedule.at(epoch), arch)
            if verbose:
                print(f"[{self.name}] epoch {epoch:3d} loss {float(loss.data):.4f}")

        arch = Architecture.from_alpha(alpha.data)
        return SearchResult(
            architecture=arch,
            predicted_metric=(
                self.predictor.predict_arch(arch) if self.predictor is not None else 0.0
            ),
            target=float("nan"),
            final_lambda=cfg.latency_lambda,
            trajectory=trajectory,
            search_paths_per_step=self.paths_per_layer * self.space.num_layers,
            num_search_steps=steps,
            metric_name="latency_ms" if self.uses_latency else "none",
        )


class DARTSSearch(GradientNAS):
    """DARTS (Liu et al., ICLR 2019): deterministic softmax relaxation.

    Hardware-agnostic and multi-path: every candidate of every layer is
    active in each step (Eq. 1), the memory bottleneck §3.3 addresses.
    """

    name = "darts"
    uses_latency = False

    def __init__(self, config: GradientNASConfig,
                 oracle: Optional[AccuracyOracle] = None,
                 predictor: Optional[MLPPredictor] = None) -> None:
        super().__init__(config, oracle, predictor)
        self.paths_per_layer = self.space.num_operators

    def relax(self, alpha: nn.Tensor, epoch: int) -> nn.Tensor:
        return F.softmax(alpha, axis=-1)


class SNASSearch(GradientNAS):
    """SNAS (Xie et al., ICLR 2019): soft Gumbel-Softmax samples.

    Stochastic but still multi-path — the soft sample keeps every
    candidate's output in the blend.
    """

    name = "snas"
    uses_latency = False

    def __init__(self, config: GradientNASConfig,
                 oracle: Optional[AccuracyOracle] = None,
                 predictor: Optional[MLPPredictor] = None) -> None:
        super().__init__(config, oracle, predictor)
        self.paths_per_layer = self.space.num_operators

    def relax(self, alpha: nn.Tensor, epoch: int) -> nn.Tensor:
        log_probs = F.log_softmax(alpha, axis=-1)
        noise = F.gumbel_noise(alpha.shape, self.rng)
        return F.gumbel_softmax(log_probs, tau=self.schedule.at(epoch), noise=noise)


class FBNetSearch(SNASSearch):
    """FBNet (Wu et al., CVPR 2019): SNAS relaxation + fixed-λ latency term.

    The paper's Figure-3 motivation runs exactly this engine over a grid of
    λ values to show the manual trial-and-error LightNAS eliminates.
    """

    name = "fbnet"
    uses_latency = True


class ProxylessSearch(GradientNAS):
    """ProxylessNAS (Cai et al., ICLR 2019): two-path binary gates.

    Each step samples two candidate paths per layer from the current
    distribution and renormalises their probabilities, so memory scales
    with 2 paths instead of K; the latency penalty uses fixed λ.
    """

    name = "proxylessnas"
    paths_per_layer = 2
    uses_latency = True

    def relax(self, alpha: nn.Tensor, epoch: int) -> nn.Tensor:
        probs = F.softmax(alpha, axis=-1)
        mask = np.zeros(alpha.shape)
        for row, p in enumerate(probs.data):
            chosen = self.rng.choice(self.space.num_operators, size=2, replace=False,
                                     p=p / p.sum())
            mask[row, chosen] = 1.0
        masked = probs * nn.Tensor(mask)
        return masked / nn.ops.sum_(masked, axis=-1, keepdims=True)
