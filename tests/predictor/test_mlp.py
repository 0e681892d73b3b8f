"""Tests of the MLP latency/energy predictor (§3.2)."""

import numpy as np
import pytest

from repro import nn
from repro.predictor.dataset import collect_latency_dataset
from repro.predictor.mlp import MLPPredictor


class TestArchitectureOfPredictor:
    def test_paper_layer_sizes(self, full_space):
        pred = MLPPredictor(full_space)
        dims = [(l.in_features, l.out_features) for l in pred.layers]
        assert dims == [(147, 128), (128, 64), (64, 1)]

    def test_input_dim_follows_space(self, tiny_space):
        pred = MLPPredictor(tiny_space)
        assert pred.input_dim == tiny_space.num_layers * tiny_space.num_operators


class TestFit:
    def test_reaches_low_rmse(self, tiny_space, tiny_latency_model, tiny_predictor):
        rng = np.random.default_rng(99)
        data = collect_latency_dataset(tiny_latency_model, 200, rng)
        rmse = tiny_predictor.rmse(data)
        # tiny-space latency spread is ~0.1 ms; predictor should be well
        # under the trivial (predict-the-mean) error
        baseline = float(data.targets.std())
        assert rmse < 0.6 * baseline

    def test_rejects_tiny_training_set(self, tiny_space, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 3, rng)
        pred = MLPPredictor(tiny_space)
        data.targets = data.targets[:1]
        data.features = data.features[:1]
        data.archs = data.archs[:1]
        with pytest.raises(ValueError):
            pred.fit(data)

    def test_training_loss_decreases(self, tiny_space, tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 150, rng)
        errors = []
        for epochs in (1, 30):
            pred = MLPPredictor(tiny_space, hidden=(32, 16), seed=1)
            pred.fit(data, epochs=epochs, batch_size=64, lr=3e-3)
            errors.append(pred.rmse(data))
        assert errors[1] < errors[0]

    def test_fitted_flag(self, tiny_space, tiny_latency_model, rng):
        pred = MLPPredictor(tiny_space)
        assert not pred.fitted
        data = collect_latency_dataset(tiny_latency_model, 50, rng)
        pred.fit(data, epochs=2)
        assert pred.fitted


class TestPredictPaths:
    def test_numpy_and_tensor_paths_agree(self, tiny_space, tiny_predictor, rng):
        archs = tiny_space.sample_many(8, rng)
        feats = np.stack(
            [a.one_hot(tiny_space.num_operators).reshape(-1) for a in archs])
        fast = tiny_predictor.predict(feats)
        taped = tiny_predictor.predict_tensor(nn.Tensor(feats)).data
        assert np.allclose(fast, taped)

    def test_predict_arch_scalar(self, tiny_space, tiny_predictor, rng):
        value = tiny_predictor.predict_arch(tiny_space.sample(rng))
        assert isinstance(value, float)
        assert value > 0

    def test_differentiable_wrt_input(self, tiny_space, tiny_predictor, rng):
        """The property Eq. (12) needs: ∂LAT/∂(input encoding) exists."""
        arch = tiny_space.sample(rng)
        feats = nn.Tensor(
            arch.one_hot(tiny_space.num_operators).reshape(1, -1),
            requires_grad=True,
        )
        out = tiny_predictor.predict_tensor(feats)
        out.sum().backward()
        assert feats.grad is not None
        assert np.abs(feats.grad).max() > 0

    def test_predict_single_row(self, tiny_space, tiny_predictor, rng):
        arch = tiny_space.sample(rng)
        feat = arch.one_hot(tiny_space.num_operators).reshape(1, -1)
        assert tiny_predictor.predict(feat).shape == (1,)


class TestStateDict:
    def test_round_trip(self, tiny_space, tiny_predictor, rng):
        state = tiny_predictor.state_dict()
        clone = MLPPredictor(tiny_space, hidden=(64, 32), seed=7)
        clone.load_state_dict(state)
        arch = tiny_space.sample(rng)
        assert np.isclose(clone.predict_arch(arch),
                          tiny_predictor.predict_arch(arch))

    def test_normalisation_restored(self, tiny_space, tiny_predictor):
        state = tiny_predictor.state_dict()
        clone = MLPPredictor(tiny_space, hidden=(64, 32))
        clone.load_state_dict(state)
        assert clone.target_mean == tiny_predictor.target_mean
        assert clone.target_std == tiny_predictor.target_std
        assert clone.fitted


class TestFastPredictPath:
    def test_fast_weights_cached_after_fit(self, tiny_predictor):
        assert tiny_predictor._fast_weights is not None
        for (w_t, _), layer in zip(tiny_predictor._fast_weights,
                                   tiny_predictor.layers):
            assert w_t.flags["C_CONTIGUOUS"]
            assert np.array_equal(w_t, layer.weight.data.T)

    def test_fast_weights_cleared_during_fit(self, tiny_space,
                                             tiny_latency_model, rng):
        data = collect_latency_dataset(tiny_latency_model, 80, rng)
        predictor = MLPPredictor(tiny_space, hidden=(16,), seed=0)
        predictor.fit(data, epochs=2, batch_size=32)
        assert predictor._fast_weights is not None  # refreshed at fit end

    def test_fast_weights_refreshed_by_load(self, tiny_space, tiny_predictor):
        fresh = MLPPredictor(tiny_space, hidden=(64, 32))
        assert fresh._fast_weights is None  # unfitted: no stale cache
        fresh.load_state_dict(tiny_predictor.state_dict())
        assert fresh._fast_weights is not None
        arch = tiny_space.sample(np.random.default_rng(2))
        assert fresh.predict_arch(arch) == tiny_predictor.predict_arch(arch)

    def test_cached_and_uncached_paths_agree(self, tiny_space, tiny_predictor, rng):
        feats = tiny_space.encode_many(tiny_space.sample_indices(16, rng))
        cached = tiny_predictor.predict(feats)
        saved, tiny_predictor._fast_weights = tiny_predictor._fast_weights, None
        try:
            uncached = tiny_predictor.predict(feats)
        finally:
            tiny_predictor._fast_weights = saved
        # BLAS may pick different kernels for contiguous vs transposed
        # operands, so agreement is to rounding, not bit-for-bit.
        assert np.allclose(cached, uncached, rtol=1e-12, atol=1e-12)

    def test_one_dim_input_still_accepted(self, tiny_space, tiny_predictor, rng):
        feats = tiny_space.encode_many(tiny_space.sample_indices(1, rng))
        assert tiny_predictor.predict(feats[0]).shape == (1,)
        assert tiny_predictor.predict(feats[0])[0] == tiny_predictor.predict(feats)[0]

    def test_float32_input_still_accepted(self, tiny_space, tiny_predictor, rng):
        feats = tiny_space.encode_many(tiny_space.sample_indices(8, rng))
        out32 = tiny_predictor.predict(feats.astype(np.float32))
        assert np.allclose(out32, tiny_predictor.predict(feats))

    def test_fast_path_does_not_copy(self, tiny_space, tiny_predictor, rng):
        """2-D float64 input must be used as-is — the whole point of the
        fast path is skipping the atleast_2d + astype copy."""
        feats = tiny_space.encode_many(tiny_space.sample_indices(4, rng))
        expected = tiny_predictor.predict(feats)
        feats_view = feats  # predict must not mutate or re-wrap it
        assert np.array_equal(tiny_predictor.predict(feats_view), expected)


class TestPredictPopulation:
    def test_matches_per_arch_predictions(self, tiny_space, tiny_predictor, rng):
        ops = tiny_space.sample_indices(20, rng)
        batched = tiny_predictor.predict_population(ops)
        scalar = [tiny_predictor.predict_arch(a)
                  for a in tiny_space.indices_to_archs(ops)]
        assert np.allclose(batched, scalar, rtol=0, atol=1e-12)

    def test_chunking_is_invisible(self, tiny_space, tiny_predictor, rng,
                                   monkeypatch):
        from repro.predictor import mlp

        ops = tiny_space.sample_indices(50, rng)
        whole = tiny_predictor.predict_population(ops)
        monkeypatch.setattr(mlp, "CHUNK_ROWS", 7)
        chunked = tiny_predictor.predict_population(ops)
        # chunk height changes the BLAS kernel choice → rounding-level only
        assert np.allclose(whole, chunked, rtol=1e-12, atol=1e-12)

    def test_predict_population_rows_independent_of_batch(
            self, tiny_space, tiny_predictor):
        """A row's prediction is the same bits whatever batch it rides in:
        ``repro serve`` coalesces concurrent ``/predict`` requests into one
        forward and must answer each exactly as a lone call would."""
        rng = np.random.default_rng(0)
        ops = tiny_space.sample_indices(64, rng)
        full = tiny_predictor.predict_population(ops)
        for sel in (np.arange(5), np.array([0, 13, 63]),
                    np.arange(64)[::2], np.array([7])):
            subset = tiny_predictor.predict_population(ops[sel])
            assert np.array_equal(subset, full[sel])

    def test_accepts_architecture_sequence(self, tiny_space, tiny_predictor, rng):
        archs = tiny_space.sample_many(6, rng)
        from_archs = tiny_predictor.predict_population(archs)
        from_ops = tiny_predictor.predict_population(
            tiny_space.as_index_matrix(archs))
        assert np.array_equal(from_archs, from_ops)
