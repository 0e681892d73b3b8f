"""Search results and trajectories.

:class:`SearchTrajectory` records, per search epoch, everything the
stability/convergence figures of the paper plot (Figures 7 and 8 Right):
the predicted metric of the current architecture, the multiplier λ, the
validation loss, and the derived architecture itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..search_space.space import Architecture

__all__ = ["SearchTrajectory", "SearchResult"]


@dataclass
class SearchTrajectory:
    """Per-epoch time series of one search run."""

    epochs: List[int] = field(default_factory=list)
    predicted_metric: List[float] = field(default_factory=list)
    lambda_values: List[float] = field(default_factory=list)
    valid_loss: List[float] = field(default_factory=list)
    temperature: List[float] = field(default_factory=list)
    architectures: List[Architecture] = field(default_factory=list)

    def record(self, epoch: int, metric: float, lam: float, loss: float,
               tau: float, arch: Architecture) -> None:
        self.epochs.append(epoch)
        self.predicted_metric.append(metric)
        self.lambda_values.append(lam)
        self.valid_loss.append(loss)
        self.temperature.append(tau)
        self.architectures.append(arch)

    def __len__(self) -> int:
        return len(self.epochs)

    # ------------------------------------------------------------------
    # Checkpoint support: the trajectory as a flat dict of arrays that
    # round-trips exactly through ``.npz`` (architectures as an (E, L)
    # int64 matrix of operator indices).
    def as_arrays(self) -> Dict[str, np.ndarray]:
        archs = (
            np.array([a.op_indices for a in self.architectures], dtype=np.int64)
            if self.architectures
            else np.zeros((0, 0), dtype=np.int64)
        )
        return {
            "traj_epochs": np.array(self.epochs, dtype=np.int64),
            "traj_predicted_metric": np.array(self.predicted_metric,
                                              dtype=np.float64),
            "traj_lambda_values": np.array(self.lambda_values, dtype=np.float64),
            "traj_valid_loss": np.array(self.valid_loss, dtype=np.float64),
            "traj_temperature": np.array(self.temperature, dtype=np.float64),
            "traj_architectures": archs,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "SearchTrajectory":
        """Rebuild a trajectory from :meth:`as_arrays` output (strict)."""
        for key in ("traj_epochs", "traj_predicted_metric", "traj_lambda_values",
                    "traj_valid_loss", "traj_temperature", "traj_architectures"):
            if key not in arrays:
                raise KeyError(f"missing trajectory array {key}")
        return cls(
            epochs=[int(e) for e in arrays["traj_epochs"]],
            predicted_metric=[float(x) for x in arrays["traj_predicted_metric"]],
            lambda_values=[float(x) for x in arrays["traj_lambda_values"]],
            valid_loss=[float(x) for x in arrays["traj_valid_loss"]],
            temperature=[float(x) for x in arrays["traj_temperature"]],
            architectures=[
                Architecture(tuple(int(i) for i in row))
                for row in arrays["traj_architectures"]
            ],
        )


@dataclass
class SearchResult:
    """Outcome of one search run.

    Attributes
    ----------
    architecture:
        The derived architecture (per-layer argmax of α, Eq. 4).
    predicted_metric:
        Predictor estimate of the constrained metric for ``architecture``.
    target:
        The constraint T the run was asked to satisfy.
    final_lambda:
        The learned multiplier at termination.
    trajectory:
        Per-epoch series (see :class:`SearchTrajectory`).
    search_paths_per_step:
        Operator instances executed per supernet forward — 1·L for
        single-path LightNAS, K·L for multi-path baselines (Table 1's
        "search complexity" row).
    num_search_steps:
        Total optimisation steps taken (cost accounting).
    metric_name:
        Which hardware metric was constrained ("latency_ms", "energy_mj").
    """

    architecture: Architecture
    predicted_metric: float
    target: float
    final_lambda: float
    trajectory: SearchTrajectory
    search_paths_per_step: int
    num_search_steps: int
    metric_name: str = "latency_ms"

    @property
    def constraint_error(self) -> float:
        """Relative deviation |METRIC − T| / T of the returned architecture."""
        return abs(self.predicted_metric - self.target) / self.target

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable digest (used by the benchmark reports)."""
        return {
            "architecture": list(self.architecture.op_indices),
            "metric_name": self.metric_name,
            "predicted_metric": round(self.predicted_metric, 4),
            "target": self.target,
            "constraint_error": round(self.constraint_error, 5),
            "final_lambda": round(self.final_lambda, 5),
            "num_search_steps": self.num_search_steps,
            "search_paths_per_step": self.search_paths_per_step,
        }
