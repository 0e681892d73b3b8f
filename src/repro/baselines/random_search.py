"""Random search under a latency constraint — the sanity baseline.

Samples architectures uniformly, keeps those whose predicted latency
satisfies the target, and returns the feasible candidate with the best
quick-evaluation accuracy.  Any method that does not beat this is not
searching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.result import SearchResult, SearchTrajectory
from ..predictor.mlp import MLPPredictor
from ..proxy.accuracy_model import AccuracyOracle
from ..runtime.telemetry import NullJournal, RunJournal
from ..search_space.space import Architecture, SearchSpace

__all__ = ["RandomSearchConfig", "RandomSearch"]


@dataclass
class RandomSearchConfig:
    space: SearchSpace = field(default_factory=SearchSpace)
    target: float = 24.0
    num_samples: int = 1000
    seed: int = 0


class RandomSearch:
    """Constraint-filtered random sampling."""

    name = "random"

    def __init__(self, config: RandomSearchConfig, predictor: MLPPredictor,
                 oracle: Optional[AccuracyOracle] = None) -> None:
        self.config = config
        self.space = config.space
        self.predictor = predictor
        self.oracle = oracle or AccuracyOracle(self.space)
        self.rng = np.random.default_rng(config.seed)

    def search(self, verbose: bool = False, *,
               journal: Optional[RunJournal] = None) -> SearchResult:
        cfg = self.config
        journal = journal if journal is not None else NullJournal()
        run_start = time.perf_counter()
        journal.run_header(engine=self.name, metric_name="latency_ms",
                           target=cfg.target, seed=cfg.seed,
                           num_samples=cfg.num_samples)
        trajectory = SearchTrajectory()
        best: Optional[Architecture] = None
        best_top1 = -np.inf
        # Sample and feasibility-score the whole population in one shot;
        # only the survivors pay the (per-architecture) quick evaluation.
        ops = self.space.sample_indices(cfg.num_samples, self.rng)
        preds = self.predictor.predict_population(ops)
        for i in np.nonzero(preds <= cfg.target)[0]:
            arch = Architecture(tuple(ops[i].tolist()))
            top1 = self.oracle.evaluate(arch, epochs=50).top1
            if top1 > best_top1:
                best, best_top1 = arch, top1
                trajectory.record(int(i), float(preds[i]), 0.0, -top1, 0.0, arch)
                journal.epoch(epoch=int(i),
                              predicted_metric=round(float(preds[i]), 6),
                              target=cfg.target, best_top1=round(top1, 4),
                              architecture=list(arch.op_indices))
                if verbose:
                    print(f"[random] sample {i:5d} new best top-1 {top1:.2f}")
        if best is None:
            raise RuntimeError(
                f"no feasible architecture in {cfg.num_samples} samples for "
                f"target {cfg.target}"
            )
        predicted = self.predictor.predict_arch(best)
        journal.run_end(
            final_predicted_metric=round(float(predicted), 6),
            best_top1=round(best_top1, 4),
            architecture=list(best.op_indices),
            num_search_steps=cfg.num_samples,
            wall_time_s=round(time.perf_counter() - run_start, 6),
        )
        return SearchResult(
            architecture=best,
            predicted_metric=predicted,
            target=cfg.target,
            final_lambda=0.0,
            trajectory=trajectory,
            search_paths_per_step=self.space.num_layers,
            num_search_steps=cfg.num_samples,
            metric_name="latency_ms",
        )
