"""Tests of the temperature schedule and single-path Gumbel sampler."""

import numpy as np
import pytest

from repro import nn
from repro.core.gumbel import GumbelSampler, TemperatureSchedule
from repro.search_space.space import Architecture


class TestTemperatureSchedule:
    def test_starts_at_initial(self):
        sched = TemperatureSchedule(5.0, 0.1, 90)
        assert np.isclose(sched.at(0), 5.0)

    def test_ends_at_floor(self):
        sched = TemperatureSchedule(5.0, 0.1, 90)
        assert np.isclose(sched.at(89), 0.1)

    def test_monotone_decreasing(self):
        sched = TemperatureSchedule(5.0, 0.1, 50)
        taus = [sched.at(t) for t in range(50)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_clamps_beyond_end(self):
        sched = TemperatureSchedule(5.0, 0.1, 10)
        assert sched.at(500) == 0.1

    def test_negative_step_clamped(self):
        sched = TemperatureSchedule(5.0, 0.1, 10)
        assert sched.at(-3) == 5.0

    def test_single_step_schedule(self):
        assert TemperatureSchedule(5.0, 0.1, 1).at(0) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            TemperatureSchedule(1.0, 2.0, 10)


class TestSampler:
    @pytest.fixture
    def sampler(self):
        return GumbelSampler(TemperatureSchedule(5.0, 0.1, 20),
                             np.random.default_rng(0))

    def test_probabilities_simplex(self, sampler):
        alpha = nn.Tensor(np.random.default_rng(1).normal(size=(4, 7)))
        soft, _ = sampler.sample_gates(alpha, step=0)
        assert np.allclose(soft.data.sum(axis=-1), 1.0)
        assert (soft.data >= 0).all()

    def test_hard_gates_one_hot(self, sampler):
        alpha = nn.Tensor(np.zeros((4, 7)))
        _, hard = sampler.sample_gates(alpha, step=0)
        assert np.allclose(hard.data.sum(axis=-1), 1.0)
        assert set(np.unique(hard.data)) <= {0.0, 1.0}

    def test_deterministic_mode_selects_argmax(self, sampler):
        alpha = np.zeros((3, 7))
        alpha[0, 2] = alpha[1, 5] = alpha[2, 0] = 3.0
        _, hard = sampler.sample_gates(nn.Tensor(alpha), step=19,
                                       deterministic=True)
        assert hard.data.argmax(axis=1).tolist() == [2, 5, 0]

    def test_samples_concentrate_when_alpha_concentrates(self, sampler):
        """Gumbel-max samples exactly from softmax(α): a strongly peaked α
        row (logit gap 6 ⇒ p ≈ 0.985) must dominate the samples — the
        property the log-probability fix of Eq. (7) restores."""
        alpha = np.zeros((5, 7))
        alpha[:, 3] = 6.0
        hits = 0
        for _ in range(50):
            _, hard = sampler.sample_gates(nn.Tensor(alpha), step=19)
            hits += (hard.data.argmax(axis=1) == 3).mean()
        assert hits / 50 > 0.93

    def test_samples_diverse_with_uniform_alpha(self, sampler):
        alpha = nn.Tensor(np.zeros((4, 7)))
        picks = set()
        for _ in range(40):
            _, hard = sampler.sample_gates(alpha, step=0)
            picks.update(hard.data.argmax(axis=1).tolist())
        assert len(picks) >= 5  # exploration over the 7 candidates

    def test_gradient_flows_to_alpha(self, sampler):
        alpha = nn.Parameter(np.zeros((3, 7)))
        _, hard = sampler.sample_gates(alpha, step=5)
        (hard * nn.Tensor(np.arange(21.0).reshape(3, 7))).sum().backward()
        assert alpha.grad is not None
        assert np.abs(alpha.grad).max() > 0

    def test_derive_architecture_is_argmax(self, sampler):
        alpha = np.zeros((3, 7))
        alpha[0, 6] = 1.0
        alpha[1, 1] = 2.0
        arch = sampler.derive_architecture(nn.Tensor(alpha))
        assert arch == Architecture((6, 1, 0))

    def test_sampling_frequencies_match_alpha(self, sampler):
        """Gumbel-max on log P is an exact categorical sampler: with τ large
        irrelevant (hard argmax unaffected by τ), frequencies follow
        softmax(α)."""
        alpha = nn.Tensor(np.log(np.array([[0.6, 0.3, 0.1]])))
        counts = np.zeros(3)
        n = 3000
        for _ in range(n):
            _, hard = sampler.sample_gates(alpha, step=0)
            counts[hard.data.argmax()] += 1
        assert np.allclose(counts / n, [0.6, 0.3, 0.1], atol=0.04)
