"""Tests of predictor evaluation metrics."""

import numpy as np
import pytest

from repro.predictor import metrics


class TestRMSE:
    def test_zero_for_exact(self):
        x = np.array([1.0, 2.0, 3.0])
        assert metrics.rmse(x, x) == 0.0

    def test_known_value(self):
        assert np.isclose(metrics.rmse(np.array([0.0, 0.0]),
                                       np.array([3.0, 4.0])),
                          np.sqrt(12.5))

    def test_scale_with_constant_offset(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert np.isclose(metrics.rmse(truth + 2.0, truth), 2.0)


class TestRankCorrelation:
    def test_perfect_order(self):
        pred = np.array([1.0, 2.0, 3.0, 4.0])
        assert metrics.kendall_tau(pred, pred * 10) == pytest.approx(1.0)

    def test_reversed_order(self):
        pred = np.array([1.0, 2.0, 3.0, 4.0])
        assert metrics.kendall_tau(pred, -pred) == pytest.approx(-1.0)

    def test_rank_ignores_monotone_distortion(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=50)
        distorted = np.exp(truth)  # monotone transform
        assert metrics.kendall_tau(distorted, truth) == pytest.approx(1.0)
