"""Tests of the predictor measurement-campaign datasets."""

import numpy as np
import pytest

from repro.predictor.dataset import (
    PredictorDataset,
    collect_energy_dataset,
    collect_latency_dataset,
)
from repro.hardware.energy import EnergyModel


class TestEncode:
    def test_shape(self, tiny_space, rng):
        archs = tiny_space.sample_many(5, rng)
        feats = tiny_space.encode_many(archs)
        assert feats.shape == (5, tiny_space.num_layers * tiny_space.num_operators)

    def test_rows_are_flattened_one_hots(self, tiny_space, rng):
        arch = tiny_space.sample(rng)
        feats = tiny_space.encode_many([arch])
        expected = arch.one_hot(tiny_space.num_operators).reshape(-1)
        assert np.array_equal(feats[0], expected)

    def test_row_sums_equal_num_layers(self, tiny_space, rng):
        feats = tiny_space.encode_many(tiny_space.sample_many(10, rng))
        assert np.allclose(feats.sum(axis=1), tiny_space.num_layers)


class TestCollect:
    def test_latency_campaign(self, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 50, rng)
        assert len(data) == 50
        assert (data.targets > 0).all()
        assert len(data.archs) == 50

    def test_energy_campaign(self, tiny_space, tiny_latency_model, rng):
        model = EnergyModel(tiny_space, latency_model=tiny_latency_model)
        data = collect_energy_dataset(model, 30, rng)
        assert len(data) == 30
        assert (data.targets > 0).all()

    def test_targets_near_true_latency(self, tiny_space, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 40, rng)
        true = np.array([tiny_latency_model.latency_ms(a) for a in data.archs])
        assert np.abs(data.targets - true).max() < 0.5

    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            PredictorDataset(np.zeros((2, 3)), np.zeros(3), [])


class TestSplit:
    def test_sizes(self, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 100, rng)
        train, valid = data.split(0.8, rng)
        assert len(train) == 80 and len(valid) == 20

    def test_disjoint_and_complete(self, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 60, rng)
        train, valid = data.split(0.5, rng)
        train_keys = {a.op_indices for a in train.archs}
        valid_keys = {a.op_indices for a in valid.archs}
        # archs may repeat in a random campaign, so compare target multisets
        merged = sorted(list(train.targets) + list(valid.targets))
        assert merged == sorted(data.targets)

    def test_alignment_preserved(self, tiny_space, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 50, rng)
        train, _ = data.split(0.8, rng)
        for row, arch in zip(train.features, train.archs):
            expected = arch.one_hot(tiny_space.num_operators).reshape(-1)
            assert np.array_equal(row, expected)

    def test_invalid_fraction(self, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 10, rng)
        with pytest.raises(ValueError):
            data.split(0.0, rng)
        with pytest.raises(ValueError):
            data.split(1.0, rng)
