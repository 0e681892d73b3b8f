"""MnasNet-style reinforcement-learning architecture search.

MnasNet (Tan et al., CVPR 2019) trains an RNN controller with REINFORCE on
the latency-aware reward ``ACC(m) · [LAT(m)/T]^w`` (``w = α`` at or below
the target T, ``w = β`` above it) and evaluates each
sampled architecture by training it — the source of its 40,000-GPU-hour
cost in Table 1.  We keep the essential algorithm with a factorised
per-layer categorical policy (the controller state the search space actually
needs) and the oracle's quick-evaluation protocol as the per-sample reward,
with on-device latency *measurements* (not predictions) per sample, exactly
the expensive loop the paper contrasts against.

The reward is MnasNet's hard-constraint variant, ``α = 0`` and ``β = -1``:
no penalty at or below the target, and ``ACC(m) · T/LAT(m)`` above it.
MnasNet's soft variant, ``α = β = -0.07``, is not a constraint: a 14%
overrun costs under 1% of reward, and the controller settles above T.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.result import SearchResult, SearchTrajectory
from ..hardware.latency import LatencyModel
from ..proxy.accuracy_model import AccuracyOracle
from ..runtime.checkpoint import fingerprint_of
from ..runtime.telemetry import NullJournal, RunJournal
from ..search_space.space import Architecture, SearchSpace

__all__ = ["RLSearchConfig", "RLSearch"]

#: REINFORCE step size of the policy logits
POLICY_LR = 0.15
#: MnasNet's hard-constraint reward exponent ``β`` (applied above T only)
REWARD_EXPONENT = -1.0
#: decay of the moving-average reward baseline
BASELINE_MOMENTUM = 0.95


@dataclass
class RLSearchConfig:
    """REINFORCE controller hyper-parameters."""

    space: SearchSpace = field(default_factory=SearchSpace)
    target: float = 24.0
    iterations: int = 600
    batch_archs: int = 8
    seed: int = 0


class RLSearch:
    """Factorised-policy REINFORCE with the MnasNet reward."""

    name = "mnasnet-rl"

    def __init__(
        self,
        config: RLSearchConfig,
        latency_model: LatencyModel,
        oracle: Optional[AccuracyOracle] = None,
    ) -> None:
        self.config = config
        self.space = config.space
        self.latency_model = latency_model
        self.oracle = oracle or AccuracyOracle(self.space)
        self.rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    def _latency_penalty(self, top1: float, latency: float) -> float:
        """MnasNet hard-constraint reward: penalise only above the target."""
        if latency <= self.config.target:
            return top1
        return top1 * (latency / self.config.target) ** REWARD_EXPONENT

    def _sample_batch(self, probs: np.ndarray, count: int) -> np.ndarray:
        """Sample ``count`` architectures from the factorised policy.

        Inverse-CDF sampling over one ``(count, L)`` uniform block replaces
        ``count × L`` sequential ``rng.choice`` calls.
        """
        cdf = probs.cumsum(axis=1)
        u = self.rng.random((count, probs.shape[0]))
        ops = (u[:, :, None] > cdf[None, :, :]).sum(axis=2)
        return np.minimum(ops, probs.shape[1] - 1)

    def _fingerprint(self) -> str:
        cfg = self.config
        return fingerprint_of(
            "rl", cfg.target, cfg.iterations, cfg.batch_archs, POLICY_LR,
            REWARD_EXPONENT, BASELINE_MOMENTUM, cfg.seed,
            self.space.num_layers, self.space.num_operators,
            repr(self.space.macro),
        )

    def search(
        self,
        verbose: bool = False,
        *,
        journal: Optional[RunJournal] = None,
    ) -> SearchResult:
        cfg = self.config
        journal = journal if journal is not None else NullJournal()
        run_start = time.perf_counter()
        logits = np.zeros((self.space.num_layers, self.space.num_operators))
        baseline = 0.0
        trajectory = SearchTrajectory()
        best_arch: Optional[Architecture] = None
        best_reward = -np.inf
        evaluations = 0
        journal.run_header(
            engine=self.name, metric_name="latency_ms", target=cfg.target,
            seed=cfg.seed, iterations=cfg.iterations,
            fingerprint=self._fingerprint(),
        )

        for iteration in range(cfg.iterations):
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            grad = np.zeros_like(logits)
            batch_ops = self._sample_batch(probs, cfg.batch_archs)
            # One on-device measurement sweep for the whole batch; only the
            # accuracy oracle (a per-network training run) stays per-arch.
            latencies = self.latency_model.measure_many(batch_ops, self.rng)
            for choices, latency in zip(batch_ops.tolist(), latencies):
                arch = Architecture(tuple(choices))
                top1 = self.oracle.evaluate(arch, epochs=50).top1 / 100.0
                reward = self._latency_penalty(top1, float(latency))
                evaluations += 1
                if reward > best_reward:
                    best_arch, best_reward = arch, reward
                advantage = reward - baseline
                baseline = (BASELINE_MOMENTUM * baseline
                            + (1 - BASELINE_MOMENTUM) * reward)
                # ∇ log π for a factorised categorical policy
                grad -= probs * advantage
                grad[np.arange(len(choices)), choices] += advantage
            logits += POLICY_LR * grad / cfg.batch_archs
            if iteration % 25 == 0:
                current = Architecture(tuple(int(i) for i in logits.argmax(axis=1)))
                current_latency = self.latency_model.latency_ms(current)
                trajectory.record(
                    iteration, current_latency, 0.0,
                    -best_reward, 0.0, current,
                )
                journal.epoch(epoch=iteration,
                              predicted_metric=round(float(current_latency), 6),
                              target=cfg.target,
                              best_reward=round(float(best_reward), 6),
                              architecture=list(current.op_indices))
                if verbose:
                    print(f"[{self.name}] iter {iteration:4d} best reward {best_reward:.4f}")

        assert best_arch is not None
        journal.run_end(
            final_predicted_metric=round(
                float(self.latency_model.latency_ms(best_arch)), 6),
            best_reward=round(float(best_reward), 6),
            architecture=list(best_arch.op_indices),
            num_search_steps=evaluations,
            wall_time_s=round(time.perf_counter() - run_start, 6),
        )
        return SearchResult(
            architecture=best_arch,
            predicted_metric=self.latency_model.latency_ms(best_arch),
            target=cfg.target,
            final_lambda=0.0,
            trajectory=trajectory,
            search_paths_per_step=self.space.num_layers,
            num_search_steps=evaluations,
            metric_name="latency_ms",
        )
