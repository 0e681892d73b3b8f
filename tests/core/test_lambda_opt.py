"""Tests of the gradient-ascent constraint multiplier λ (Eq. 11)."""

import numpy as np
import pytest

from repro import nn
from repro.core.lambda_opt import LagrangeMultiplier


def ascend_with_excess(lam: LagrangeMultiplier, excess: float) -> float:
    """Simulate one backward pass where ∂L/∂λ = excess, then ascend."""
    loss = nn.ops.reshape(lam.as_tensor(), ()) * excess
    loss.backward()
    return lam.ascend()


class TestLambdaDynamics:
    def test_initial_value(self):
        assert LagrangeMultiplier(lr=0.1).value == 0.0

    def test_increases_when_over_target(self):
        """LAT > T ⇒ excess > 0 ⇒ λ must grow (stronger penalty)."""
        lam = LagrangeMultiplier(lr=0.1)
        ascend_with_excess(lam, +0.5)
        assert lam.value > 0.0

    def test_decreases_when_under_target(self):
        """LAT < T ⇒ excess < 0 ⇒ λ must shrink — through zero, so the
        penalty can *reward* latency and pull LAT up to T."""
        lam = LagrangeMultiplier(lr=0.1)
        ascend_with_excess(lam, -0.5)
        assert lam.value < 0.0

    def test_update_magnitude_is_lr_times_excess(self):
        lam = LagrangeMultiplier(lr=0.2)
        ascend_with_excess(lam, 0.25)
        assert np.isclose(lam.value, 0.2 * 0.25)

    def test_sign_matches_excess_sign_property(self):
        for excess in (-1.0, -0.1, 0.1, 1.0):
            lam = LagrangeMultiplier(lr=0.05)
            ascend_with_excess(lam, excess)
            assert np.sign(lam.value) == np.sign(excess)

    def test_zero_excess_fixed_point(self):
        lam = LagrangeMultiplier(lr=0.1)
        ascend_with_excess(lam, 3.0)
        ascend_with_excess(lam, 0.0)
        assert np.isclose(lam.value, 0.3)

    def test_history_recorded(self):
        lam = LagrangeMultiplier(lr=0.1)
        for excess in (0.5, 0.5, -0.2):
            ascend_with_excess(lam, excess)
        assert len(lam.history) == 3
        assert lam.history[-1] == lam.value

    def test_clamp_min(self):
        lam = LagrangeMultiplier(lr=1.0, clamp_min=0.0)
        ascend_with_excess(lam, -5.0)
        assert lam.value == 0.0

    def test_grad_cleared_after_ascend(self):
        lam = LagrangeMultiplier(lr=0.1)
        ascend_with_excess(lam, 1.0)
        assert lam.param.grad is None

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            LagrangeMultiplier(lr=0.0)
