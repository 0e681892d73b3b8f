"""Tests of optimizers and schedules in repro.nn.optim."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, ops


class ReLU(nn.Module):
    """Test-local activation module around ``ops.relu``."""

    def forward(self, x):
        return ops.relu(x)


def quadratic_step(opt, param, target=0.0):
    """One optimisation step on f(p) = 0.5 (p - target)^2."""
    loss = ((param - target) * (param - target)) * 0.5
    loss = loss.sum()
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


class TestSGD:
    def test_converges_on_quadratic(self):
        p = nn.Parameter([5.0])
        opt = nn.SGD([p], lr=0.1)
        for _ in range(200):
            quadratic_step(opt, p)
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        losses = {}
        for momentum in (0.0, 0.9):
            p = nn.Parameter([5.0])
            opt = nn.SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                last = quadratic_step(opt, p)
            losses[momentum] = last
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks(self):
        p = nn.Parameter([1.0])
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        # zero gradient; only decay acts
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_none_grad(self):
        p = nn.Parameter([1.0])
        opt = nn.SGD([p], lr=0.1)
        opt.step()  # no backward happened
        assert p.data[0] == 1.0

    def test_exact_update_rule(self):
        p = nn.Parameter([2.0])
        opt = nn.SGD([p], lr=0.5)
        p.grad = np.array([3.0])
        opt.step()
        assert np.isclose(p.data[0], 2.0 - 0.5 * 3.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter([1.0])], lr=0.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = nn.Parameter([5.0])
        opt = nn.Adam([p], lr=0.3)
        for _ in range(300):
            quadratic_step(opt, p)
        assert abs(p.data[0]) < 1e-3

    def test_first_step_magnitude_close_to_lr(self):
        # With bias correction the first Adam step ≈ lr regardless of grad scale.
        for scale in (0.01, 100.0):
            p = nn.Parameter([0.0])
            opt = nn.Adam([p], lr=0.1)
            p.grad = np.array([scale])
            opt.step()
            assert np.isclose(abs(p.data[0]), 0.1, rtol=1e-4)

    def test_weight_decay(self):
        p = nn.Parameter([1.0])
        opt = nn.Adam([p], lr=0.01, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_trains_small_network(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(2, 8, rng), ReLU(), nn.Linear(8, 1, rng))
        opt = nn.Adam(model.parameters(), lr=0.02)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2 - x[:, 1:] * 3 + 1)
        for _ in range(150):
            pred = model(Tensor(x))
            loss = nn.functional.mse_loss(pred, y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05


class TestGradientAscent:
    def test_ascends(self):
        p = nn.Parameter([0.0])
        opt = nn.GradientAscent([p], lr=0.1, floor=None)
        p.grad = np.array([2.0])
        opt.step()
        assert np.isclose(p.data[0], 0.2)

    def test_can_go_negative_without_floor(self):
        p = nn.Parameter([0.0])
        opt = nn.GradientAscent([p], lr=0.1, floor=None)
        p.grad = np.array([-5.0])
        opt.step()
        assert p.data[0] < 0

    def test_floor_clamps(self):
        p = nn.Parameter([0.0])
        opt = nn.GradientAscent([p], lr=0.1, floor=0.0)
        p.grad = np.array([-5.0])
        opt.step()
        assert p.data[0] == 0.0

    def test_maximises_concave(self):
        # maximise f(p) = -(p-3)^2 by ascent on its gradient
        p = nn.Parameter([0.0])
        opt = nn.GradientAscent([p], lr=0.1, floor=None)
        for _ in range(200):
            loss = -((p - 3.0) * (p - 3.0)).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(p.data[0] - 3.0) < 1e-3


class TestCosineSchedule:
    def test_endpoints(self):
        sched = nn.CosineSchedule(1.0, total_steps=100)
        assert np.isclose(sched.lr_at(0), 1.0)
        assert np.isclose(sched.lr_at(100), 0.0, atol=1e-12)

    def test_midpoint(self):
        sched = nn.CosineSchedule(1.0, total_steps=100)
        assert np.isclose(sched.lr_at(50), 0.5)

    def test_monotone_decreasing_after_warmup(self):
        sched = nn.CosineSchedule(1.0, total_steps=50, warmup_steps=5)
        lrs = [sched.lr_at(s) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_warmup_linear(self):
        sched = nn.CosineSchedule(0.5, total_steps=100, warmup_steps=5,
                                  warmup_start_lr=0.1)
        assert np.isclose(sched.lr_at(0), 0.1)
        assert sched.lr_at(3) < 0.5
        assert np.isclose(sched.lr_at(5), 0.5)

    def test_final_lr(self):
        sched = nn.CosineSchedule(1.0, total_steps=10, final_lr=0.2)
        assert np.isclose(sched.lr_at(10), 0.2)

    def test_clamps_out_of_range_steps(self):
        sched = nn.CosineSchedule(1.0, total_steps=10)
        assert sched.lr_at(-5) == sched.lr_at(0)
        assert sched.lr_at(99) == sched.lr_at(10)

    def test_apply_sets_optimizer(self):
        p = nn.Parameter([1.0])
        opt = nn.SGD([p], lr=1.0)
        sched = nn.CosineSchedule(1.0, total_steps=10)
        lr = sched.apply(opt, 5)
        assert opt.lr == lr

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            nn.CosineSchedule(1.0, total_steps=0)
        with pytest.raises(ValueError):
            nn.CosineSchedule(1.0, total_steps=5, warmup_steps=5)
