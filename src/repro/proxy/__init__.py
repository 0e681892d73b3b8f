"""`repro.proxy` — the accuracy substrate (replaces ImageNet training).

A seeded synthetic classification task for *real* bi-level supernet
training, the weight-sharing :class:`SuperNet` with single-path and
multi-path execution modes, and the calibrated :class:`AccuracyOracle` that
stands in for the paper's 360-epoch ImageNet retraining protocol.
"""

from .accuracy_model import AccuracyOracle, EvalResult
from .dataset import Batch, SyntheticTask
from .supernet import SuperNet, build_standalone

__all__ = [
    "AccuracyOracle",
    "EvalResult",
    "Batch",
    "SyntheticTask",
    "SuperNet",
    "build_standalone",
]
