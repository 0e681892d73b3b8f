"""`repro.predictor` — the MLP latency/energy predictor of LightNAS §3.2.

Measurement-campaign datasets (10k architectures, 80/20 split), the
128-64-1 MLP itself (differentiable through :mod:`repro.nn`, so the search
engine can backpropagate ``∂LAT/∂ᾱ``), and evaluation metrics.
"""

from .analytic import AnalyticCostPredictor
from .dataset import (
    PredictorDataset,
    campaign_shards,
    collect_energy_dataset,
    collect_energy_dataset_sharded,
    collect_latency_dataset,
    collect_latency_dataset_sharded,
)
from .metrics import kendall_tau, rmse
from .mlp import MLPPredictor, TrainingLog

__all__ = [
    "AnalyticCostPredictor",
    "PredictorDataset",
    "campaign_shards",
    "collect_latency_dataset",
    "collect_energy_dataset",
    "collect_latency_dataset_sharded",
    "collect_energy_dataset_sharded",
    "MLPPredictor",
    "TrainingLog",
    "rmse",
    "kendall_tau",
]
