"""Tests of the experiments harness (reporting + shared context)."""

import json
import os

import numpy as np
import pytest

from repro.experiments.reporting import ascii_series, render_table, save_json
from repro.experiments.shared import _device_fingerprint, fit_latency_predictor


class TestRenderTable:
    def test_basic_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "xyz" in lines[3]

    def test_title(self):
        out = render_table(["a"], [[1]], title="Table 2")
        assert out.splitlines()[0] == "Table 2"

    def test_empty_rows(self):
        out = render_table(["col"], [])
        assert "col" in out

    def test_float_formatting(self):
        out = render_table(["x"], [[1.23456]])
        assert "1.23" in out


class TestAsciiSeries:
    def test_contains_extremes(self):
        out = ascii_series([1.0, 5.0, 3.0], label="metric")
        assert "min 1" in out and "max 5" in out

    def test_empty(self):
        assert "(empty)" in ascii_series([], label="x")

    def test_downsamples_long_series(self):
        out = ascii_series(list(range(1000)))
        longest = max(len(line) for line in out.splitlines()[1:])
        assert longest <= 60

    def test_flat_series_no_crash(self):
        out = ascii_series([2.0, 2.0, 2.0])
        assert "*" in out


class TestSaveJson:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_json("unit_test_artifact", {"rows": [1, 2, 3]})
        with open(path) as handle:
            assert json.load(handle)["rows"] == [1, 2, 3]


class TestPredictorCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch, tiny_space,
                              tiny_latency_model):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        pred1, rmse1 = fit_latency_predictor(
            tiny_space, tiny_latency_model, seed=5, num_samples=300)
        pred2, rmse2 = fit_latency_predictor(
            tiny_space, tiny_latency_model, seed=5, num_samples=300)
        assert rmse1 == rmse2
        arch = tiny_space.sample(np.random.default_rng(0))
        assert np.isclose(pred1.predict_arch(arch), pred2.predict_arch(arch))
        cache_dir = os.path.join(str(tmp_path), "cache")
        assert len(os.listdir(cache_dir)) == 1

    def test_loaded_predictions_bit_identical(self, tmp_path, monkeypatch,
                                              tiny_space, tiny_latency_model):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        pred1, _ = fit_latency_predictor(
            tiny_space, tiny_latency_model, seed=6, num_samples=300)
        pred2, _ = fit_latency_predictor(
            tiny_space, tiny_latency_model, seed=6, num_samples=300)
        ops = tiny_space.sample_indices(32, np.random.default_rng(1))
        feats = tiny_space.encode_many(ops)
        assert np.array_equal(pred1.predict(feats), pred2.predict(feats))

    def test_corrupt_cache_fails_loudly(self, tmp_path, monkeypatch,
                                        tiny_space, tiny_latency_model):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        fit_latency_predictor(tiny_space, tiny_latency_model,
                              seed=7, num_samples=300)
        cache_dir = os.path.join(str(tmp_path), "cache")
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        with open(path, "wb") as handle:
            handle.write(b"not an npz archive")
        with pytest.raises(RuntimeError, match="unreadable"):
            fit_latency_predictor(tiny_space, tiny_latency_model,
                                  seed=7, num_samples=300)

    def test_missing_rmse_fails_loudly(self, tmp_path, monkeypatch,
                                       tiny_space, tiny_latency_model):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        pred, _ = fit_latency_predictor(tiny_space, tiny_latency_model,
                                        seed=8, num_samples=300)
        cache_dir = os.path.join(str(tmp_path), "cache")
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        np.savez(path.removesuffix(".npz"), **pred.state_dict())  # no __rmse
        with pytest.raises(RuntimeError, match="__rmse"):
            fit_latency_predictor(tiny_space, tiny_latency_model,
                                  seed=8, num_samples=300)

    def test_mismatched_state_fails_loudly(self, tmp_path, monkeypatch,
                                           tiny_space, tiny_latency_model):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        pred, _ = fit_latency_predictor(tiny_space, tiny_latency_model,
                                        seed=9, num_samples=300)
        cache_dir = os.path.join(str(tmp_path), "cache")
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        state = pred.state_dict()
        state["__rmse"] = np.array(0.1)
        first_param = next(k for k in state if not k.startswith("__"))
        state.pop(first_param)
        np.savez(path.removesuffix(".npz"), **state)
        with pytest.raises(RuntimeError, match="does not match"):
            fit_latency_predictor(tiny_space, tiny_latency_model,
                                  seed=9, num_samples=300)

    def test_cache_keyed_by_space_geometry(self, tmp_path, monkeypatch,
                                           tiny_space, tiny_latency_model):
        """Regression: a tiny-space fit used to collide with (and crash on)
        a cached paper-scale predictor sharing seed/size/device."""
        from repro.experiments.shared import _space_tag
        from repro.search_space.space import SearchSpace

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        fit_latency_predictor(tiny_space, tiny_latency_model,
                              seed=11, num_samples=300)
        cache_dir = os.path.join(str(tmp_path), "cache")
        (name,) = os.listdir(cache_dir)
        assert f"L{tiny_space.num_layers}K{tiny_space.num_operators}_" in name
        # the paper-scale space keeps the historical untagged names, so
        # caches tracked in the repo stay valid
        assert _space_tag(SearchSpace()) == ""

    def test_use_cache_false_ignores_cache(self, tmp_path, monkeypatch,
                                           tiny_space, tiny_latency_model):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        fit_latency_predictor(tiny_space, tiny_latency_model,
                              seed=10, num_samples=300)
        cache_dir = os.path.join(str(tmp_path), "cache")
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        with open(path, "wb") as handle:
            handle.write(b"garbage")  # would raise if the cache were read
        pred, rmse = fit_latency_predictor(tiny_space, tiny_latency_model,
                                           seed=10, num_samples=300,
                                           use_cache=False)
        assert rmse > 0.0
        with open(path, "rb") as handle:  # and nothing was written either
            assert handle.read() == b"garbage"
        assert os.listdir(cache_dir) == [os.path.basename(path)]

    def test_cache_keyed_by_fit_recipe(self, tmp_path, monkeypatch,
                                       tiny_space, tiny_latency_model):
        """The campaign recipe keeps the historical name; any other recipe
        gets its own file and never loads the campaign fit."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        base, _ = fit_latency_predictor(tiny_space, tiny_latency_model,
                                        seed=12, num_samples=300)
        other, _ = fit_latency_predictor(tiny_space, tiny_latency_model,
                                         seed=12, num_samples=300,
                                         init_seed=3, epochs=20,
                                         batch_size=64)
        cache_dir = os.path.join(str(tmp_path), "cache")
        fingerprint = _device_fingerprint(tiny_latency_model.device)
        assert sorted(os.listdir(cache_dir)) == [
            f"latency_predictor_L4K7_s12_n300_{fingerprint}.npz",
            f"latency_predictor_L4K7_s12_n300_i3_e20_b64_{fingerprint}.npz",
        ]
        feats = tiny_space.encode_many(
            tiny_space.sample_indices(16, np.random.default_rng(2)))
        assert not np.array_equal(base.predict(feats), other.predict(feats))
        again, _ = fit_latency_predictor(tiny_space, tiny_latency_model,
                                         seed=12, num_samples=300,
                                         init_seed=3, epochs=20,
                                         batch_size=64)
        assert np.array_equal(again.predict(feats), other.predict(feats))

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch,
                                              tiny_space, tiny_latency_model):
        """A crash mid-write leaves nothing at the cache path (so the next
        run cannot hit a half-written file) and no temp file behind."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        real_savez = np.savez

        def crash(stream, **arrays):
            stream.write(b"PK\x03\x04 half an archive")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(KeyboardInterrupt):
            fit_latency_predictor(tiny_space, tiny_latency_model,
                                  seed=13, num_samples=300)
        cache_dir = os.path.join(str(tmp_path), "cache")
        assert os.listdir(cache_dir) == []

        monkeypatch.setattr(np, "savez", real_savez)
        fitted, rmse = fit_latency_predictor(tiny_space, tiny_latency_model,
                                             seed=13, num_samples=300)
        assert len(os.listdir(cache_dir)) == 1
        loaded, loaded_rmse = fit_latency_predictor(
            tiny_space, tiny_latency_model, seed=13, num_samples=300)
        assert loaded_rmse == rmse
        feats = tiny_space.encode_many(
            tiny_space.sample_indices(16, np.random.default_rng(3)))
        assert np.array_equal(loaded.predict(feats), fitted.predict(feats))
