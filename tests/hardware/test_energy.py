"""Tests of the energy model and drifting measurements."""

import numpy as np
import pytest

from repro.hardware.energy import EnergyMeter, EnergyModel
from repro.search_space.operators import SKIP_INDEX
from repro.search_space.space import Architecture


class TestEnergyModel:
    def test_monotone_in_capacity(self, full_space, full_energy_model):
        small = Architecture((0,) * 21)
        big = Architecture((5,) * 21)
        assert full_energy_model.energy_mj(big) > full_energy_model.energy_mj(small)

    def test_includes_static_term(self, full_space, full_energy_model,
                                  full_latency_model):
        arch = Architecture((SKIP_INDEX,) * 21)
        latency = full_latency_model.latency_ms(arch)
        energy = full_energy_model.energy_mj(arch)
        static = full_energy_model.device.static_power_w * latency
        assert energy >= static

    def test_se_increases_energy(self, full_space, full_energy_model):
        arch = Architecture((1,) * 21)
        assert (full_energy_model.energy_mj(arch, with_se_last=9)
                > full_energy_model.energy_mj(arch))

    def test_deterministic(self, full_space, full_energy_model, rng):
        arch = full_space.sample(rng)
        assert full_energy_model.energy_mj(arch) == full_energy_model.energy_mj(arch)

    def test_range_matches_figure8_band(self, full_space, full_energy_model, rng):
        # Figure 8 searches under a 500 mJ constraint: random architectures
        # must straddle that value for the experiment to be meaningful.
        energies = [full_energy_model.energy_mj(full_space.sample(rng))
                    for _ in range(200)]
        assert min(energies) < 500.0 < max(energies)


class TestEnergyMeter:
    def test_noisier_than_latency(self, full_space, full_energy_model,
                                  full_latency_model):
        # The paper notes temperature noise makes energy fits visibly worse.
        rng = np.random.default_rng(0)
        arch = full_space.sample(rng)
        meter = EnergyMeter(full_energy_model, np.random.default_rng(1))
        energy_samples = np.array([meter.measure(arch) for _ in range(200)])
        rel_energy = energy_samples.std() / energy_samples.mean()
        lat_samples = np.array(
            [full_latency_model.measure(arch, rng) for _ in range(200)])
        rel_lat = lat_samples.std() / lat_samples.mean()
        assert rel_energy > rel_lat

    def test_drift_is_correlated(self, full_space, full_energy_model):
        # Consecutive drift states must be correlated (AR(1)), unlike white
        # noise: compare lag-1 autocorrelation of residuals.
        rng = np.random.default_rng(2)
        arch = Architecture((1,) * 21)
        meter = EnergyMeter(full_energy_model, rng)
        true = full_energy_model.energy_mj(arch)
        residuals = np.array([meter.measure(arch) - true for _ in range(600)])
        lag1 = np.corrcoef(residuals[:-1], residuals[1:])[0, 1]
        assert lag1 > 0.5

    def test_measure_many(self, full_space, full_energy_model, rng):
        meter = EnergyMeter(full_energy_model, np.random.default_rng(4))
        archs = full_space.sample_many(5, rng)
        out = meter.measure_many(archs)
        assert out.shape == (5,)
        assert (out > 0).all()
