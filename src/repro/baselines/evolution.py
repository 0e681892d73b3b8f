"""OFA-style constrained evolutionary search (regularized evolution).

Once-for-All (Cai et al., ICLR 2020) amortises a single expensive supernet
training and then runs, per deployment target, an evolutionary search over
sub-networks guided by accuracy/latency predictors.  This module implements
that *specialisation* stage as regularized evolution (Real et al., AAAI
2019 — the paper's reference [7]):

* a population of architectures that satisfy the latency constraint,
* tournament parent selection, single-operator mutation,
* oldest individual dies (ageing), fitness from the accuracy oracle.

The latency constraint is enforced by rejection: mutants whose *predicted*
latency exceeds the target are discarded, mirroring OFA's predictor-guided
feasibility filtering.  Like OFA (and unlike LightNAS) this can target any
T in one specialisation run — but only after the huge amortised supernet
cost that Table 1 reports (1,275 GPU hours).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..core.result import SearchResult, SearchTrajectory
from ..predictor.mlp import MLPPredictor
from ..proxy.accuracy_model import AccuracyOracle
from ..runtime.checkpoint import fingerprint_of
from ..runtime.telemetry import NullJournal, RunJournal
from ..search_space.space import Architecture, SearchSpace

__all__ = ["EvolutionConfig", "EvolutionSearch"]

#: give up after this many consecutive infeasible mutants per cycle
MAX_REJECTS = 200
#: contestants drawn (without replacement) for each parent selection
TOURNAMENT_SIZE = 16


@dataclass
class EvolutionConfig:
    """Regularized-evolution hyper-parameters."""

    space: SearchSpace = field(default_factory=SearchSpace)
    target: float = 24.0
    population_size: int = 64
    cycles: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < TOURNAMENT_SIZE:
            raise ValueError(f"population must hold at least one tournament "
                             f"({TOURNAMENT_SIZE} individuals)")


class EvolutionSearch:
    """Latency-constrained regularized evolution over the search space."""

    name = "ofa-evolution"

    def __init__(
        self,
        config: EvolutionConfig,
        predictor: MLPPredictor,
        oracle: Optional[AccuracyOracle] = None,
    ) -> None:
        self.config = config
        self.space = config.space
        self.predictor = predictor
        self.oracle = oracle or AccuracyOracle(self.space)
        self.rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    def _feasible(self, arch: Architecture) -> bool:
        return self.predictor.predict_arch(arch) <= self.config.target

    def _fitness(self, arch: Architecture) -> float:
        return self.oracle.evaluate(arch).top1

    def _random_feasible(self) -> Architecture:
        for _ in range(MAX_REJECTS):
            arch = self.space.sample(self.rng)
            if self._feasible(arch):
                return arch
        # Fall back to thinning a random architecture with skips until it fits.
        arch = self.space.sample(self.rng)
        indices = list(arch.op_indices)
        order = self.rng.permutation(len(indices))
        for layer in order:
            if self._feasible(Architecture(tuple(indices))):
                break
            indices[layer] = self.space.skip_index
        return Architecture(tuple(indices))

    def _random_feasible_population(self, count: int) -> List[Architecture]:
        """Draw ``count`` feasible individuals by batched rejection.

        Candidates are sampled and feasibility-scored a population at a
        time (one predictor forward per batch) instead of one predictor
        call per rejection sample.
        """
        feasible: List[Architecture] = []
        budget = MAX_REJECTS * count
        drawn = 0
        batch = max(2 * count, 32)
        while len(feasible) < count and drawn < budget:
            ops = self.space.sample_indices(batch, self.rng)
            drawn += batch
            preds = self.predictor.predict_population(ops)
            for row in ops[preds <= self.config.target].tolist():
                feasible.append(Architecture(tuple(row)))
                if len(feasible) == count:
                    break
        while len(feasible) < count:  # rejection exhausted: thin with skips
            feasible.append(self._random_feasible())
        return feasible

    def _mutate_feasible(self, parent: Architecture) -> Optional[Architecture]:
        """First feasible single-op mutant of ``parent``, scored in batches."""
        parent_ops = np.asarray(parent.op_indices, dtype=np.int64)
        num_ops = self.space.num_operators
        remaining = MAX_REJECTS
        while remaining > 0:
            batch = min(remaining, 64)
            remaining -= batch
            candidates = np.tile(parent_ops, (batch, 1))
            layers = self.rng.integers(len(parent_ops), size=batch)
            # uniform over the K−1 operators that differ from the parent's
            shifts = self.rng.integers(1, num_ops, size=batch)
            candidates[np.arange(batch), layers] = (
                (candidates[np.arange(batch), layers] + shifts) % num_ops
            )
            preds = self.predictor.predict_population(candidates)
            hits = np.nonzero(preds <= self.config.target)[0]
            if hits.size:
                return Architecture(tuple(candidates[hits[0]].tolist()))
        return None

    # ------------------------------------------------------------------
    def _fingerprint(self) -> str:
        cfg = self.config
        return fingerprint_of(
            "evolution", cfg.target, cfg.population_size, TOURNAMENT_SIZE,
            cfg.cycles, cfg.seed, MAX_REJECTS, self.space.num_layers,
            self.space.num_operators, repr(self.space.macro),
        )

    # ------------------------------------------------------------------
    def search(
        self,
        verbose: bool = False,
        *,
        journal: Optional[RunJournal] = None,
    ) -> SearchResult:
        cfg = self.config
        journal = journal if journal is not None else NullJournal()
        run_start = time.perf_counter()
        population: Deque[Tuple[Architecture, float]] = deque()
        for arch in self._random_feasible_population(cfg.population_size):
            population.append((arch, self._fitness(arch)))
        trajectory = SearchTrajectory()
        best_arch, best_fit = max(population, key=lambda item: item[1])
        evaluations = cfg.population_size
        journal.run_header(
            engine=self.name, metric_name="latency_ms", target=cfg.target,
            seed=cfg.seed, cycles=cfg.cycles,
            population_size=cfg.population_size,
            fingerprint=self._fingerprint(),
        )

        for cycle in range(cfg.cycles):
            contestants = [
                population[i]
                for i in self.rng.choice(len(population), size=TOURNAMENT_SIZE,
                                         replace=False)
            ]
            parent = max(contestants, key=lambda item: item[1])[0]
            child = self._mutate_feasible(parent)
            if child is None:
                continue
            fit = self._fitness(child)
            evaluations += 1
            population.append((child, fit))
            population.popleft()  # ageing: the oldest dies
            if fit > best_fit:
                best_arch, best_fit = child, fit
            if cycle % 25 == 0:
                predicted_best = self.predictor.predict_arch(best_arch)
                trajectory.record(cycle, predicted_best,
                                  0.0, -best_fit, 0.0, best_arch)
                journal.epoch(epoch=cycle,
                              predicted_metric=round(float(predicted_best), 6),
                              target=cfg.target,
                              best_top1=round(best_fit, 4),
                              architecture=list(best_arch.op_indices))
                if verbose:
                    print(f"[{self.name}] cycle {cycle:4d} best top-1 {best_fit:.2f}")

        journal.run_end(
            final_predicted_metric=round(
                float(self.predictor.predict_arch(best_arch)), 6),
            best_top1=round(best_fit, 4),
            architecture=list(best_arch.op_indices),
            num_search_steps=evaluations,
            wall_time_s=round(time.perf_counter() - run_start, 6),
        )
        return SearchResult(
            architecture=best_arch,
            predicted_metric=self.predictor.predict_arch(best_arch),
            target=cfg.target,
            final_lambda=0.0,
            trajectory=trajectory,
            search_paths_per_step=self.space.num_layers,
            num_search_steps=evaluations,
            metric_name="latency_ms",
        )
