"""Search-cost accounting (Table 1 and the cost column of Table 2).

Two complementary accountings:

* :data:`PAPER_REPORTED_GPU_HOURS` — the costs each method's own paper
  reports for one *explicit* search run, which Table 1 cites.
* :func:`simulated_gpu_hours` — a path-step cost model over what our
  engines actually executed: every (operator × step) executed during search
  costs a fixed GPU-time quantum, calibrated so that a full-space LightNAS
  run (90 epochs × 50 steps × 21 single-path layers) costs the paper's 10
  GPU hours.  Multi-path baselines pay K× per step; sample-and-train
  methods (MnasNet-style RL) pay a per-candidate *training* cost instead.

The *implicit* cost of manual λ tuning (§2.2) multiplies the explicit cost
by the number of trial runs — empirically ≈10 for fixed-λ hardware-aware
methods, and exactly 1 for LightNAS ("you only search once").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "PAPER_REPORTED_GPU_HOURS",
    "IMPLICIT_RUNS",
    "MethodCost",
    "simulated_gpu_hours",
    "total_design_cost",
]

#: GPU hours for one explicit search run, as reported in the paper's Table 1
#: and §4 (FBNet-Xavier ≈ 186 is the paper's own re-run of FBNet).
PAPER_REPORTED_GPU_HOURS: Dict[str, float] = {
    "darts": 24.0,
    "snas": 36.0,
    "mnasnet-rl": 40_000.0,
    "ofa-evolution": 1_275.0,
    "proxylessnas": 200.0,
    "fbnet": 216.0,
    "unas": 103.0,
    "lightnas": 10.0,
    "random": 24.0,
}

#: search runs needed to hit a *specified* latency target (implicit cost):
#: fixed-λ methods sweep λ by trial and error (§2.2, empirically ×10);
#: accuracy-only methods cannot target latency at all (∞ would be honest,
#: we report the sweep count a practitioner would attempt).
IMPLICIT_RUNS: Dict[str, int] = {
    "darts": 10,
    "snas": 10,
    "fbnet": 10,
    "proxylessnas": 10,
    "unas": 10,
    "mnasnet-rl": 1,
    "ofa-evolution": 1,
    "lightnas": 1,
    "random": 1,
}

#: GPU-time quantum per executed (operator, step): calibrated so a full
#: LightNAS run (4,500 steps × 21 active ops) = 10 GPU hours.
GPU_HOURS_PER_PATH_STEP: float = 10.0 / (4500 * 21)

#: GPU hours to quick-train one sampled candidate (RL accounting): MnasNet's
#: 40,000 GPU hours over ≈8,000 sampled models ⇒ 5 GPU hours per sample.
GPU_HOURS_PER_TRAINED_SAMPLE: float = 5.0

#: amortised supernet-training cost OFA pays before any specialisation.
OFA_AMORTISED_GPU_HOURS: float = 1_200.0


@dataclass(frozen=True)
class MethodCost:
    """Cost breakdown for one method reaching one latency target."""

    method: str
    explicit_gpu_hours: float
    runs_needed: int

    @property
    def total_gpu_hours(self) -> float:
        return self.explicit_gpu_hours * self.runs_needed


def simulated_gpu_hours(
    method: str,
    num_steps: int,
    paths_per_step: int,
    trained_samples: int = 0,
) -> float:
    """Cost of what an engine actually executed, in GPU-hour equivalents.

    Parameters
    ----------
    num_steps / paths_per_step:
        Gradient steps and operator instances per step (from
        :class:`repro.core.result.SearchResult`).
    trained_samples:
        Candidates trained from scratch (RL-style accounting).

    One-off substrate costs (:data:`OFA_AMORTISED_GPU_HOURS`) are not
    executed steps, so they are not part of this model.
    """
    if num_steps < 0 or paths_per_step < 0 or trained_samples < 0:
        raise ValueError("cost inputs must be non-negative")
    hours = num_steps * paths_per_step * GPU_HOURS_PER_PATH_STEP
    hours += trained_samples * GPU_HOURS_PER_TRAINED_SAMPLE
    return hours


def total_design_cost(method: str, explicit_gpu_hours: Optional[float] = None
                      ) -> MethodCost:
    """Explicit × implicit design cost of reaching one specified target."""
    if method not in IMPLICIT_RUNS:
        raise KeyError(f"unknown method {method!r}")
    explicit = (
        explicit_gpu_hours
        if explicit_gpu_hours is not None
        else PAPER_REPORTED_GPU_HOURS[method]
    )
    return MethodCost(method=method, explicit_gpu_hours=explicit,
                      runs_needed=IMPLICIT_RUNS[method])
