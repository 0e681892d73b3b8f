"""MnasNet-style reinforcement-learning architecture search.

MnasNet (Tan et al., CVPR 2019) trains an RNN controller with REINFORCE on
the latency-aware reward ``ACC(m) · [LAT(m)/T]^w`` and evaluates each
sampled architecture by training it — the source of its 40,000-GPU-hour
cost in Table 1.  We keep the essential algorithm with a factorised
per-layer categorical policy (the controller state the search space actually
needs) and the oracle's quick-evaluation protocol as the per-sample reward,
with on-device latency *measurements* (not predictions) per sample, exactly
the expensive loop the paper contrasts against.

The exponent ``w = -0.07`` follows MnasNet's hard-constraint variant: the
penalty applies only when latency exceeds the target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..archive.cache import EvalCache
from ..core.result import SearchResult, SearchTrajectory
from ..hardware.latency import LatencyModel
from ..proxy.accuracy_model import AccuracyOracle
from ..runtime.checkpoint import (
    CheckpointError,
    CheckpointManager,
    fingerprint_of,
    load_checkpoint,
    resolve_checkpoint,
    restore_rng,
    rng_state_json,
)
from ..runtime.telemetry import NullJournal, RunJournal
from ..search_space.space import Architecture, SearchSpace

__all__ = ["RLSearchConfig", "RLSearch"]


@dataclass
class RLSearchConfig:
    """REINFORCE controller hyper-parameters."""

    space: SearchSpace = field(default_factory=SearchSpace)
    target: float = 24.0
    iterations: int = 600
    batch_archs: int = 8
    policy_lr: float = 0.15
    reward_exponent: float = -0.07
    baseline_momentum: float = 0.95
    seed: int = 0


class RLSearch:
    """Factorised-policy REINFORCE with the MnasNet reward."""

    name = "mnasnet-rl"

    def __init__(
        self,
        config: RLSearchConfig,
        latency_model: LatencyModel,
        oracle: Optional[AccuracyOracle] = None,
        cache: Optional[EvalCache] = None,
    ) -> None:
        self.config = config
        self.space = config.space
        self.latency_model = latency_model
        self.oracle = oracle or AccuracyOracle(self.space)
        self.rng = np.random.default_rng(config.seed)
        # Only the deterministic oracle rewards are cacheable: the noisy
        # on-device latency measurements consume the seeded RNG stream and
        # must stay live for runs to stay reproducible.
        if cache is not None and cache.oracle is not self.oracle:
            raise ValueError("the EvalCache must wrap this engine's oracle")
        self.cache = cache

    def _quick_top1(self, arch: Architecture) -> float:
        if self.cache is not None:
            return self.cache.fitness(arch, epochs=50)
        return self.oracle.evaluate(arch, epochs=50).top1

    # ------------------------------------------------------------------
    def _latency_penalty(self, top1: float, latency: float) -> float:
        """MnasNet hard-constraint reward: penalise only above the target."""
        if latency <= self.config.target:
            return top1
        return top1 * (latency / self.config.target) ** self.config.reward_exponent

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
            "rl", cfg.target, cfg.iterations, cfg.batch_archs, cfg.policy_lr,
            cfg.reward_exponent, cfg.baseline_momentum, cfg.seed,
            self.space.num_layers, self.space.num_operators,
            repr(self.space.macro),
        )

    def _capture_state(self, iteration: int, logits: np.ndarray,
                       baseline: float, best_arch: Optional[Architecture],
                       best_reward: float, evaluations: int,
                       trajectory: SearchTrajectory) -> Tuple[Dict, Dict]:
        meta = {
            "kind": "rl",
            "fingerprint": self._fingerprint(),
            "next_iteration": iteration + 1,
            "evaluations": evaluations,
            "baseline": baseline,
            "best_reward": best_reward,
            "rng_state": rng_state_json(self.rng),
        }
        arrays = {
            "logits": logits.copy(),
            "best_ops": np.array(
                best_arch.op_indices if best_arch is not None else [],
                dtype=np.int64),
        }
        arrays.update(trajectory.as_arrays())
        return meta, arrays

    def search(
        self,
        verbose: bool = False,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 100,
        resume_from: Optional[str] = None,
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
        start_iteration = 0
        if resume_from is not None:
            path = resolve_checkpoint(resume_from)
            meta, arrays = load_checkpoint(path)
            if meta.get("kind") != "rl":
                raise CheckpointError(
                    f"checkpoint {path!r} belongs to engine "
                    f"{meta.get('kind')!r}, not to RL search"
                )
            if meta.get("fingerprint") != self._fingerprint():
                raise CheckpointError(
                    f"checkpoint {path!r} was written by a run with a "
                    f"different configuration; resume with the original one"
                )
            logits = arrays["logits"].copy()
            baseline = float(meta["baseline"])
            best_reward = float(meta["best_reward"])
            if arrays["best_ops"].size:
                best_arch = Architecture(tuple(arrays["best_ops"].tolist()))
            evaluations = int(meta["evaluations"])
            start_iteration = int(meta["next_iteration"])
            restore_rng(self.rng, meta["rng_state"])
            trajectory = SearchTrajectory.from_arrays(arrays)
        manager = (CheckpointManager(checkpoint_dir, every=checkpoint_every)
                   if checkpoint_dir else None)
        journal.run_header(
            engine=self.name, metric_name="latency_ms", target=cfg.target,
            seed=cfg.seed, iterations=cfg.iterations,
            start_epoch=start_iteration, fingerprint=self._fingerprint(),
        )

        for iteration in range(start_iteration, cfg.iterations):
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            grad = np.zeros_like(logits)
            batch_ops = self._sample_batch(probs, cfg.batch_archs)
            # One on-device measurement sweep for the whole batch; only the
            # accuracy oracle (a per-network training run) stays per-arch.
            latencies = self.latency_model.measure_many(batch_ops, self.rng)
            for choices, latency in zip(batch_ops.tolist(), latencies):
                arch = Architecture(tuple(choices))
                top1 = self._quick_top1(arch) / 100.0
                reward = self._latency_penalty(top1, float(latency))
                evaluations += 1
                if reward > best_reward:
                    best_arch, best_reward = arch, reward
                advantage = reward - baseline
                baseline = (
                    cfg.baseline_momentum * baseline
                    + (1 - cfg.baseline_momentum) * reward
                )
                # ∇ log π for a factorised categorical policy
                grad -= probs * advantage
                grad[np.arange(len(choices)), choices] += advantage
            logits += cfg.policy_lr * grad / cfg.batch_archs
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
            if manager is not None and manager.due(iteration):
                meta, arrays = self._capture_state(
                    iteration, logits, baseline, best_arch, best_reward,
                    evaluations, trajectory)
                path = manager.save(iteration, meta, arrays)
                journal.event("checkpoint", epoch=iteration, path=path)

        assert best_arch is not None
        journal.run_end(
            final_predicted_metric=round(
                float(self.latency_model.latency_ms(best_arch)), 6),
            best_reward=round(float(best_reward), 6),
            architecture=list(best_arch.op_indices),
            num_search_steps=evaluations,
            wall_time_s=round(time.perf_counter() - run_start, 6),
            **(self.cache.counters() if self.cache is not None else {}),
        )
        if self.cache is not None:
            self.cache.flush(engine=self.name, seed=cfg.seed,
                             config_fingerprint=self._fingerprint())
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
