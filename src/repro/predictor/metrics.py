"""Accuracy metrics for hardware-metric predictors."""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "kendall_tau"]


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square error (the paper's headline predictor metric)."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def kendall_tau(pred: np.ndarray, truth: np.ndarray) -> float:
    """Kendall rank correlation — what matters for search is ranking."""
    # scipy.stats is imported on first use so searches never load it.
    from scipy import stats

    tau = stats.kendalltau(pred, truth).statistic
    return float(tau)
