"""Tests of the exact analytic cost predictors."""

import numpy as np
import pytest

from repro import nn
from repro.hardware.flops import arch_cost, count_macs, count_params
from repro.predictor.analytic import AnalyticCostPredictor


class TestExactness:
    def test_macs_match_counter(self, full_space, rng):
        predictor = AnalyticCostPredictor(full_space, "macs_m")
        for _ in range(20):
            arch = full_space.sample(rng)
            assert predictor.predict_arch(arch) == pytest.approx(
                count_macs(full_space, arch) / 1e6)

    def test_params_match_counter(self, full_space, rng):
        predictor = AnalyticCostPredictor(full_space, "params_m")
        arch = full_space.sample(rng)
        assert predictor.predict_arch(arch) == pytest.approx(
            count_params(full_space, arch) / 1e6)

    def test_flops_is_twice_macs(self, full_space, rng):
        arch = full_space.sample(rng)
        macs = AnalyticCostPredictor(full_space, "macs_m").predict_arch(arch)
        flops = AnalyticCostPredictor(full_space, "flops_m").predict_arch(arch)
        assert flops == pytest.approx(2 * macs)

    def test_batch_predict_matches_scalar(self, full_space, rng):
        predictor = AnalyticCostPredictor(full_space)
        archs = full_space.sample_many(5, rng)
        feats = full_space.encode_many(archs)
        batch = predictor.predict(feats)
        scalars = [predictor.predict_arch(a) for a in archs]
        assert np.allclose(batch, scalars)


class TestInterface:
    def test_always_fitted(self, full_space):
        assert AnalyticCostPredictor(full_space).fitted

    def test_tensor_path_matches_and_differentiates(self, full_space, rng):
        predictor = AnalyticCostPredictor(full_space)
        arch = full_space.sample(rng)
        feats = nn.Tensor(arch.one_hot(full_space.num_operators).reshape(1, -1),
                          requires_grad=True)
        out = predictor.predict_tensor(feats)
        assert np.isclose(float(out.data[0]), predictor.predict_arch(arch))
        out.sum().backward()
        # the gradient of a linear predictor is its cost table, exactly
        assert np.allclose(feats.grad.reshape(-1),
                           predictor.table.reshape(-1))

    def test_unknown_metric_rejected(self, full_space):
        with pytest.raises(ValueError):
            AnalyticCostPredictor(full_space, "joules")

    def test_validates_arch(self, full_space):
        from repro.search_space.space import Architecture

        predictor = AnalyticCostPredictor(full_space)
        with pytest.raises(ValueError):
            predictor.predict_arch(Architecture((0,)))

    def test_usable_as_search_constraint(self, full_space):
        """The paper's mobile setting (multi-adds < 600M) as a constraint."""
        from repro.core.lightnas import LightNAS, LightNASConfig

        predictor = AnalyticCostPredictor(full_space, "macs_m")
        config = LightNASConfig.paper(420.0, space=full_space, seed=0,
                                      metric_name="macs_m", epochs=25,
                                      steps_per_epoch=20)
        result = LightNAS(config, predictor=predictor).search()
        macs = count_macs(full_space, result.architecture) / 1e6
        assert abs(macs - 420.0) < 25.0
