"""Tests of evolution, RL, random-search and scaling baselines."""

import numpy as np
import pytest

from repro.baselines.evolution import EvolutionConfig, EvolutionSearch
from repro.baselines.random_search import RandomSearch, RandomSearchConfig
from repro.baselines.rl_search import RLSearch, RLSearchConfig
from repro.baselines.scaling import ScalingBaseline
from repro.search_space.macro import MacroConfig


TINY_TARGET = 2.3  # inside the tiny-space latency band (~2.15–2.45 ms)


class TestEvolution:
    @pytest.fixture(scope="class")
    def result(self, tiny_space, tiny_predictor, tiny_oracle):
        cfg = EvolutionConfig(space=tiny_space, target=TINY_TARGET,
                              population_size=16, cycles=60, seed=0)
        return EvolutionSearch(cfg, tiny_predictor, tiny_oracle).search()

    def test_respects_constraint(self, result, tiny_predictor):
        assert tiny_predictor.predict_arch(result.architecture) <= TINY_TARGET

    def test_architecture_valid(self, tiny_space, result):
        tiny_space.validate(result.architecture)

    def test_beats_random_feasible_average(self, tiny_space, tiny_predictor,
                                           tiny_oracle, result, rng):
        best = tiny_oracle.evaluate(result.architecture).top1
        feasible = [a for a in tiny_space.sample_many(200, rng)
                    if tiny_predictor.predict_arch(a) <= TINY_TARGET]
        mean_random = np.mean([tiny_oracle.evaluate(a).top1 for a in feasible])
        assert best > mean_random

    def test_config_validation(self, tiny_space):
        with pytest.raises(ValueError, match="one tournament"):
            EvolutionConfig(space=tiny_space, population_size=8)
        with pytest.raises(ValueError, match="one tournament"):
            EvolutionConfig(space=tiny_space, population_size=1)

    def test_evaluation_count(self, result):
        assert result.num_search_steps >= 16  # at least the initial population


class TestRL:
    @pytest.fixture(scope="class")
    def result(self, tiny_space, tiny_latency_model, tiny_oracle):
        cfg = RLSearchConfig(space=tiny_space, target=TINY_TARGET,
                             iterations=40, batch_archs=4, seed=0)
        return RLSearch(cfg, tiny_latency_model, tiny_oracle).search()

    def test_architecture_valid(self, tiny_space, result):
        tiny_space.validate(result.architecture)

    def test_latency_near_target(self, result, tiny_latency_model):
        lat = tiny_latency_model.latency_ms(result.architecture)
        assert lat <= TINY_TARGET * 1.15  # reward collapses far above target

    def test_reward_penalises_overrun(self, tiny_space, tiny_latency_model,
                                      tiny_oracle):
        cfg = RLSearchConfig(space=tiny_space, target=0.5, seed=0)
        engine = RLSearch(cfg, tiny_latency_model, tiny_oracle)
        arch = tiny_space.sample(np.random.default_rng(0))
        top1 = tiny_oracle.evaluate(arch, epochs=50).top1 / 100.0
        latency = tiny_latency_model.latency_ms(arch)
        assert latency > cfg.target
        assert engine._latency_penalty(top1, latency) < top1

    def test_reward_untouched_under_target(self, tiny_space, tiny_latency_model,
                                           tiny_oracle):
        cfg = RLSearchConfig(space=tiny_space, target=1e9, seed=0)
        engine = RLSearch(cfg, tiny_latency_model, tiny_oracle)
        arch = tiny_space.sample(np.random.default_rng(0))
        top1 = tiny_oracle.evaluate(arch, epochs=50).top1 / 100.0
        latency = tiny_latency_model.latency_ms(arch)
        assert engine._latency_penalty(top1, latency) == top1

    def test_counts_trained_samples(self, result):
        assert result.num_search_steps == 40 * 4


class TestRandomSearch:
    def test_best_feasible_returned(self, tiny_space, tiny_predictor,
                                    tiny_oracle):
        cfg = RandomSearchConfig(space=tiny_space, target=TINY_TARGET,
                                 num_samples=150, seed=0)
        result = RandomSearch(cfg, tiny_predictor, tiny_oracle).search()
        assert tiny_predictor.predict_arch(result.architecture) <= TINY_TARGET

    def test_raises_when_infeasible(self, tiny_space, tiny_predictor,
                                    tiny_oracle):
        cfg = RandomSearchConfig(space=tiny_space, target=0.0001,
                                 num_samples=20, seed=0)
        with pytest.raises(RuntimeError):
            RandomSearch(cfg, tiny_predictor, tiny_oracle).search()

    def test_more_samples_never_worse(self, tiny_space, tiny_predictor,
                                      tiny_oracle):
        def best(n):
            cfg = RandomSearchConfig(space=tiny_space, target=TINY_TARGET,
                                     num_samples=n, seed=7)
            res = RandomSearch(cfg, tiny_predictor, tiny_oracle).search()
            return tiny_oracle.evaluate(res.architecture, epochs=50).top1

        assert best(200) >= best(20)


class TestScaling:
    @pytest.fixture(scope="class")
    def baseline(self):
        return ScalingBaseline()

    def test_reference_is_width_one(self, baseline):
        ref = baseline.reference()
        assert ref.width_mult == 1.0
        assert ref.resolution == 224

    def test_width_fit_hits_target(self, baseline):
        model = baseline.fit_width_to_latency(24.0)
        assert abs(model.latency_ms - 24.0) < 0.5

    def test_width_curve_monotone_in_latency(self, baseline):
        curve = [baseline._evaluate_scale(m, 224, epochs=50)
                 for m in (0.5, 1.0, 1.4)]
        lats = [m.latency_ms for m in curve]
        tops = [m.top1 for m in curve]
        assert lats == sorted(lats)
        assert tops == sorted(tops)

    def test_resolution_curve_monotone(self, baseline):
        curve = [baseline._evaluate_scale(1.0, r, epochs=50)
                 for r in (128, 224)]
        assert curve[0].latency_ms < curve[1].latency_ms
        assert curve[0].top1 < curve[1].top1

    def test_resolution_fit_respects_target(self, baseline):
        model = baseline.fit_resolution_to_latency(24.0)
        assert model.latency_ms <= 24.0
