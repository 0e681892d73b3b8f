"""Multi-constraint extension: search under several hardware budgets at once.

The paper's closing claim — "LightNAS can be effortlessly plugged into
various scenarios, in which we only need to replace the latency predictor
with the predictor of the target scenario" — generalises naturally from one
constraint to many.  This module implements the extension:

    minimize  L_valid(w*(α), α) + Σ_i λ_i · (M_i(α)/T_i − 1)_+ dynamics

with one gradient-ascent multiplier per constraint.  Unlike the
single-constraint engine (which drives an *equality* ``M = T`` — λ may go
negative to pull the metric up), several equalities are generically
infeasible simultaneously, so the multi-constraint form treats each budget
as an *inequality* ``M_i ≤ T_i``: multipliers are clamped at zero
(a standard dual for inequality constraints), growing while a budget is
violated and decaying to zero once it is met.  At least one constraint is
active at the optimum (the binding budget), which the returned result
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..proxy.accuracy_model import AccuracyOracle
from ..search_space.space import SearchSpace
from .gumbel import (GumbelSampler, TemperatureSchedule, alpha_optimizer,
                     alpha_schedule)
from .lambda_opt import LagrangeMultiplier
from .result import SearchResult, SearchTrajectory

__all__ = ["Constraint", "MultiConstraintConfig", "MultiConstraintLightNAS"]


@dataclass
class Constraint:
    """One hardware budget: a fitted predictor plus a target ceiling."""

    name: str
    predictor: object  # MLPPredictor or AnalyticCostPredictor (duck typed)
    target: float

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError(f"constraint {self.name!r} needs a positive target")
        if not getattr(self.predictor, "fitted", False):
            raise ValueError(f"constraint {self.name!r} has an unfitted predictor")


@dataclass
class MultiConstraintConfig:
    """Configuration of a multi-budget search (surrogate mode)."""

    space: SearchSpace
    constraints: Sequence[Constraint]
    epochs: int = 90
    steps_per_epoch: int = 50
    lambda_lr: float = 0.01
    penalty_mu: float = 1.0
    tau_initial: float = 5.0
    tau_floor: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("need at least one constraint")
        names = [c.name for c in self.constraints]
        if len(set(names)) != len(names):
            raise ValueError("constraint names must be unique")


class MultiConstraintLightNAS:
    """One-time search satisfying several budgets simultaneously."""

    def __init__(self, config: MultiConstraintConfig,
                 oracle: Optional[AccuracyOracle] = None) -> None:
        self.config = config
        self.space = config.space
        self.oracle = oracle or AccuracyOracle(self.space)
        self.rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    def _metric_tensor(self, constraint: Constraint, gates: nn.Tensor) -> nn.Tensor:
        flat = nn.ops.reshape(gates, (1, gates.shape[0] * gates.shape[1]))
        return constraint.predictor.predict_tensor(flat)[0]

    def search(self, verbose: bool = False) -> Tuple[SearchResult, Dict[str, float]]:
        """Run the search; returns ``(result, final_metrics_by_name)``.

        The :class:`SearchResult`'s scalar fields describe the *first*
        constraint; the returned dict reports every constraint's predicted
        metric for the derived architecture.
        """
        cfg = self.config
        alpha = nn.Parameter(self.space.uniform_alpha(), name="alpha")
        alpha_opt = alpha_optimizer(alpha)
        alpha_sched = alpha_schedule(cfg.epochs)
        # inequality duals: clamped at zero
        multipliers = {c.name: LagrangeMultiplier(lr=cfg.lambda_lr, clamp_min=0.0)
                       for c in cfg.constraints}
        schedule = TemperatureSchedule(cfg.tau_initial, cfg.tau_floor, cfg.epochs)
        sampler = GumbelSampler(schedule, self.rng)
        trajectory = SearchTrajectory()
        steps = 0

        for epoch in range(cfg.epochs):
            alpha_sched.apply(alpha_opt, epoch)
            for _ in range(cfg.steps_per_epoch):
                _, gates = sampler.sample_gates(alpha, epoch)
                _, det_gates = sampler.sample_gates(alpha, epoch,
                                                    deterministic=True)
                loss = self.oracle.differentiable_loss(gates)
                for constraint in cfg.constraints:
                    lam = multipliers[constraint.name]
                    metric = self._metric_tensor(constraint, det_gates)
                    excess = metric * (1.0 / constraint.target) - 1.0
                    loss = loss + nn.ops.reshape(lam.as_tensor(), ()) * excess
                    if cfg.penalty_mu > 0:
                        # damp only actual violations (inequality semantics)
                        violation = nn.ops.relu(excess)
                        loss = loss + violation * violation * (0.5 * cfg.penalty_mu)
                alpha_opt.zero_grad()
                for lam in multipliers.values():
                    lam.param.zero_grad()
                loss.backward()
                alpha_opt.step()
                for lam in multipliers.values():
                    lam.ascend()
                steps += 1

            arch = sampler.derive_architecture(alpha)
            first = cfg.constraints[0]
            trajectory.record(
                epoch, first.predictor.predict_arch(arch),
                multipliers[first.name].value, float(loss.data),
                schedule.at(epoch), arch,
            )
            if verbose:
                status = ", ".join(
                    f"{c.name}={c.predictor.predict_arch(arch):.2f}/{c.target:g}"
                    for c in cfg.constraints)
                print(f"[multi] epoch {epoch:3d} {status}")

        arch = sampler.derive_architecture(alpha)
        metrics = {c.name: c.predictor.predict_arch(arch)
                   for c in cfg.constraints}
        first = cfg.constraints[0]
        result = SearchResult(
            architecture=arch,
            predicted_metric=metrics[first.name],
            target=first.target,
            final_lambda=multipliers[first.name].value,
            trajectory=trajectory,
            search_paths_per_step=self.space.num_layers,
            num_search_steps=steps,
            metric_name=first.name,
        )
        return result, metrics
