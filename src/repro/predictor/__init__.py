"""`repro.predictor` — the MLP latency/energy predictor of LightNAS §3.2.

Measurement-campaign datasets (10k architectures, 80/20 split), the
128-64-1 MLP itself (differentiable through :mod:`repro.nn`, so the search
engine can backpropagate ``∂LAT/∂ᾱ``), and evaluation metrics.  A
campaign runs in the calling process: 10k samples take tens of
milliseconds, less than forking workers to share them would cost.
"""

from .analytic import AnalyticCostPredictor
from .dataset import (
    PredictorDataset,
    collect_energy_dataset,
    collect_latency_dataset,
)
from .metrics import kendall_tau, rmse
from .mlp import MLPPredictor

__all__ = [
    "AnalyticCostPredictor",
    "PredictorDataset",
    "collect_latency_dataset",
    "collect_energy_dataset",
    "MLPPredictor",
    "rmse",
    "kendall_tau",
]
