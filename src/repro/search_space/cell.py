"""Cell-based search (the DARTS-style alternative §3.1 argues against).

DARTS and its variants search a small *cell* and tile it across the whole
network, so every repetition of the cell uses the same operators.  The paper
(citing MnasNet) argues that "enabling the layer diversity helps to strike
the right balance between accuracy and efficiency" and therefore searches
layer-wise.  This module makes that comparison concrete *inside the same
substrate*:

* :class:`CellSpace` wraps the layer-wise space with a cell of
  ``cell_size`` positions; a cell choice is tiled cyclically over the L
  searchable layers, producing an ordinary :class:`Architecture` that every
  evaluator (latency model, oracle, predictors) already understands.
* :class:`CellConstrainedSearch` runs the LightNAS machinery (Gumbel
  single-path gates, λ ascent, augmented damping) over the *cell*
  parameters: the expansion to full one-hot gates is a constant linear map,
  so gradients flow through unchanged.

The ``bench_ablation_cellspace`` benchmark then shows what §3.1 claims: at
matched latency, the tiled cell cannot express the early-thin/late-fat
allocation the layer-wise search finds, and loses accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .. import nn
from ..core.gumbel import (GumbelSampler, TemperatureSchedule,
                          alpha_optimizer, alpha_schedule)
from ..core.lambda_opt import LagrangeMultiplier
from .space import Architecture, SearchSpace

__all__ = ["CellSpace", "CellSearchConfig", "CellConstrainedSearch"]


class CellSpace:
    """A cell of ``cell_size`` operator slots tiled over the full network."""

    def __init__(self, base: SearchSpace, cell_size: int = 4) -> None:
        if not 1 <= cell_size <= base.num_layers:
            raise ValueError(
                f"cell_size must be in [1, {base.num_layers}], got {cell_size}")
        self.base = base
        self.cell_size = cell_size
        # constant tiling map: full layer l uses cell position l mod C
        self._tile = np.zeros((base.num_layers, cell_size))
        for layer in range(base.num_layers):
            self._tile[layer, layer % cell_size] = 1.0

    @property
    def size(self) -> float:
        """Number of distinct cells (≪ the layer-wise space)."""
        return float(self.base.num_operators) ** self.cell_size

    def expand(self, cell_choices: Tuple[int, ...]) -> Architecture:
        """Tile a discrete cell into a full architecture."""
        if len(cell_choices) != self.cell_size:
            raise ValueError(
                f"expected {self.cell_size} cell choices, got {len(cell_choices)}")
        return Architecture(tuple(
            int(cell_choices[layer % self.cell_size])
            for layer in range(self.base.num_layers)
        ))

    def expand_gates(self, cell_gates: nn.Tensor) -> nn.Tensor:
        """Differentiable tiling: (C, K) cell gates → (L, K) full gates."""
        if cell_gates.shape != (self.cell_size, self.base.num_operators):
            raise ValueError("cell gate matrix has the wrong shape")
        return nn.ops.matmul(nn.Tensor(self._tile), cell_gates)

    def sample(self, rng: np.random.Generator) -> Architecture:
        """Uniformly sample a cell and expand it."""
        cell = tuple(int(i) for i in
                     rng.integers(self.base.num_operators, size=self.cell_size))
        return self.expand(cell)


@dataclass
class CellSearchConfig:
    """Hyper-parameters of the constrained cell search."""

    cell_size: int = 4
    target: float = 24.0
    epochs: int = 90
    steps_per_epoch: int = 50
    lambda_lr: float = 0.01
    penalty_mu: float = 1.0
    tau_initial: float = 5.0
    tau_floor: float = 0.1
    seed: int = 0


class CellConstrainedSearch:
    """LightNAS-style constrained search restricted to tiled cells."""

    def __init__(self, space: SearchSpace, config: CellSearchConfig,
                 predictor, oracle) -> None:
        self.cell_space = CellSpace(space, config.cell_size)
        self.space = space
        self.config = config
        self.predictor = predictor
        self.oracle = oracle
        self.rng = np.random.default_rng(config.seed)

    def _metric(self, full_gates: nn.Tensor) -> nn.Tensor:
        flat = nn.ops.reshape(
            full_gates, (1, full_gates.shape[0] * full_gates.shape[1]))
        return self.predictor.predict_tensor(flat)[0]

    def search(self, verbose: bool = False) -> Tuple[Architecture, float]:
        """Run the search; returns ``(architecture, predicted_metric)``."""
        cfg = self.config
        alpha = nn.Parameter(
            np.zeros((cfg.cell_size, self.space.num_operators)), name="cell-alpha")
        optimizer = alpha_optimizer(alpha)
        schedule = alpha_schedule(cfg.epochs)
        lam = LagrangeMultiplier(lr=cfg.lambda_lr)
        sampler = GumbelSampler(
            TemperatureSchedule(cfg.tau_initial, cfg.tau_floor, cfg.epochs),
            self.rng)

        for epoch in range(cfg.epochs):
            schedule.apply(optimizer, epoch)
            for _ in range(cfg.steps_per_epoch):
                _, cell_gates = sampler.sample_gates(alpha, epoch)
                _, det_cell_gates = sampler.sample_gates(alpha, epoch,
                                                         deterministic=True)
                full = self.cell_space.expand_gates(cell_gates)
                det_full = self.cell_space.expand_gates(det_cell_gates)
                loss = self.oracle.differentiable_loss(full)
                metric = self._metric(det_full)
                excess = metric * (1.0 / cfg.target) - 1.0
                loss = loss + nn.ops.reshape(lam.as_tensor(), ()) * excess
                if cfg.penalty_mu > 0:
                    loss = loss + excess * excess * (0.5 * cfg.penalty_mu)
                optimizer.zero_grad()
                lam.param.zero_grad()
                loss.backward()
                optimizer.step()
                lam.ascend()
            if verbose:
                arch = self.cell_space.expand(
                    tuple(int(i) for i in alpha.data.argmax(axis=1)))
                print(f"[cell] epoch {epoch:3d} "
                      f"metric {self.predictor.predict_arch(arch):.2f} "
                      f"λ {lam.value:+.3f}")

        cell = tuple(int(i) for i in alpha.data.argmax(axis=1))
        arch = self.cell_space.expand(cell)
        return arch, self.predictor.predict_arch(arch)
