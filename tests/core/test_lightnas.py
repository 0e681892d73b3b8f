"""Tests of the LightNAS engine: config validation and search behaviour."""

import os

import numpy as np
import pytest

from repro import nn
from repro.cli import main
from repro.core import gumbel, lightnas
from repro.core.lightnas import LightNAS, LightNASConfig
from repro.experiments.shared import fit_latency_predictor
from repro.hardware.latency import LatencyModel
from repro.runtime.telemetry import RunJournal, read_journal
from repro.search_space.macro import MacroConfig
from repro.search_space.space import SearchSpace


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = LightNASConfig()
        assert cfg.epochs == 90
        assert cfg.warmup_epochs == 10
        assert (gumbel.ALPHA_LR, gumbel.ALPHA_WEIGHT_DECAY) == (1e-3, 1e-3)
        assert (lightnas.W_LR, lightnas.W_MOMENTUM,
                lightnas.W_WEIGHT_DECAY) == (0.1, 0.9, 3e-5)
        assert cfg.tau_initial == 5.0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            LightNASConfig(mode="bogus")

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            LightNASConfig(target=-1.0)

    def test_supernet_needs_epochs_beyond_warmup(self):
        with pytest.raises(ValueError):
            LightNASConfig(mode="supernet", epochs=5, warmup_epochs=10)

    def test_paper_factory(self):
        cfg = LightNASConfig.paper(26.0)
        assert cfg.target == 26.0
        assert cfg.space.num_layers == 21
        assert cfg.mode == "surrogate"

    def test_tiny_factory(self):
        cfg = LightNASConfig.tiny(1.5)
        assert cfg.mode == "supernet"
        assert cfg.space.num_layers == 4

    def test_overrides_pass_through(self):
        cfg = LightNASConfig.paper(24.0, epochs=7, steps_per_epoch=3)
        assert cfg.epochs == 7 and cfg.steps_per_epoch == 3

    @pytest.mark.parametrize("alias, canonical", [
        ("latency", "latency_ms"),
        ("energy", "energy_mj"),
        ("macs", "macs_m"),
        ("latency_ms", "latency_ms"),
    ])
    def test_metric_aliases_canonicalized(self, alias, canonical):
        assert LightNASConfig(metric_name=alias).metric_name == canonical

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            LightNASConfig(metric_name="flops")

    def test_surrogate_rejects_float32(self):
        """Regression: a surrogate search ignored compute_dtype="float32"
        (every dtype scope is supernet-only) yet fingerprinted it, so its
        checkpoints refused float64 resumes under a flag that did nothing."""
        with pytest.raises(ValueError, match="--tiny supernet searches"):
            LightNASConfig.paper(24.0, compute_dtype="float32")
        cfg = LightNASConfig.tiny(1.5, compute_dtype="float32")
        assert cfg.compute_dtype == "float32"


class TestSurrogateSearch:
    @pytest.fixture(scope="class")
    def result(self, full_space, full_predictor):
        cfg = LightNASConfig.paper(24.0, space=full_space, seed=0,
                                   epochs=40, steps_per_epoch=25)
        return LightNAS(cfg, predictor=full_predictor).search()

    def test_returns_valid_architecture(self, full_space, result):
        full_space.validate(result.architecture)

    def test_hits_latency_target(self, full_space, full_latency_model, result):
        true = full_latency_model.latency_ms(result.architecture)
        assert abs(true - 24.0) < 1.5

    def test_trajectory_converges_to_target(self, result):
        tail = result.trajectory.predicted_metric[-5:]
        assert all(abs(m - 24.0) < 2.5 for m in tail)

    def test_single_path_complexity(self, full_space, result):
        assert result.search_paths_per_step == full_space.num_layers

    def test_step_count(self, result):
        assert result.num_search_steps == 40 * 25

    def test_trajectory_length(self, result):
        assert len(result.trajectory) == 40

    def test_lambda_history_moves(self, result):
        lams = result.trajectory.lambda_values
        assert max(abs(l) for l in lams) > 1e-4


class TestTrajectoryValidLoss:
    """Regression: trajectory.valid_loss was a stale constant 0.0."""

    def test_records_epoch_mean_of_actual_losses(self, tiny_space,
                                                 tiny_predictor, tiny_oracle,
                                                 monkeypatch):
        # eager steps, so the spy sees every step's loss (a replayed plan
        # never calls back into Python); tests/core/test_surrogate_plan.py
        # pins the plans-on trajectory bit-identical to this one
        cfg = LightNASConfig(space=tiny_space, target=2.3, mode="surrogate",
                             epochs=6, steps_per_epoch=3, seed=0)
        engine = LightNAS(cfg, predictor=tiny_predictor, oracle=tiny_oracle)
        seen = []
        original = engine.oracle.differentiable_loss

        def spy(gates):
            out = original(gates)
            seen.append(out.data.item())  # a batch of one: one loss
            return out

        monkeypatch.setattr(engine.oracle, "differentiable_loss", spy)
        with nn.plans(False):
            traj = engine.search().trajectory
        steps = cfg.steps_per_epoch
        means = [sum(seen[e * steps:(e + 1) * steps]) / steps
                 for e in range(cfg.epochs)]
        assert traj.valid_loss == pytest.approx(means)
        assert len(set(traj.valid_loss)) > 1  # not a stale constant

    def test_supernet_mode_records_nonzero_losses(self, tiny_latency_model):
        cfg = LightNASConfig.tiny(latency_target_ms=2.3, seed=4,
                                  epochs=4, steps_per_epoch=2, warmup_epochs=2)
        traj = LightNAS(cfg).search().trajectory
        # every epoch — warmup included — reports a real validation loss
        assert len(traj.valid_loss) == 4
        assert all(v > 0.0 for v in traj.valid_loss)
        assert len(set(traj.valid_loss)) > 1


class TestTargetSweep:
    def test_one_search_per_target_tracks_targets(self, full_space,
                                                  full_predictor,
                                                  full_latency_model):
        """The headline claim: different targets, one run each, no λ tuning,
        and the resulting latencies are ordered and near their targets."""
        latencies = []
        for target in (18.0, 24.0, 30.0):
            cfg = LightNASConfig.paper(target, space=full_space, seed=1,
                                       epochs=45, steps_per_epoch=25)
            res = LightNAS(cfg, predictor=full_predictor).search()
            latencies.append(full_latency_model.latency_ms(res.architecture))
        assert latencies[0] < latencies[1] < latencies[2]
        for lat, target in zip(latencies, (18.0, 24.0, 30.0)):
            assert abs(lat - target) < 2.5

    def test_larger_budget_buys_accuracy(self, full_space, full_predictor,
                                         full_oracle):
        tops = []
        for target in (18.0, 30.0):
            cfg = LightNASConfig.paper(target, space=full_space, seed=2,
                                       epochs=30, steps_per_epoch=25)
            res = LightNAS(cfg, predictor=full_predictor).search()
            tops.append(full_oracle.evaluate(res.architecture).top1)
        assert tops[1] > tops[0]


class TestSupernetSearch:
    def test_tiny_bilevel_run(self, tiny_latency_model):
        cfg = LightNASConfig.tiny(latency_target_ms=2.25, seed=0,
                                  epochs=8, steps_per_epoch=3, warmup_epochs=2)
        engine = LightNAS(cfg)
        result = engine.search()
        cfg.space.validate(result.architecture)
        # the tiny space spans ~2.15–2.45 ms; the target must be approached
        true = LatencyModel(cfg.space).latency_ms(result.architecture)
        assert abs(true - 2.25) < 0.2

    def test_warmup_freezes_alpha(self):
        cfg = LightNASConfig.tiny(latency_target_ms=2.3, seed=1,
                                  epochs=4, steps_per_epoch=2, warmup_epochs=3)
        engine = LightNAS(cfg)
        result = engine.search()
        # only (epochs - warmup) epochs contribute α steps
        assert result.num_search_steps == (4 - 3) * 2

    def test_supernet_search_compiles_no_plans(self, tiny_predictor,
                                               tmp_path, capsys):
        """Supernet steps follow the sampled Gumbel path, which rarely
        repeats, so they run eagerly outside any step program (seed 1 once
        compiled 3 plans into 90 MB): the journal carries no plan counters
        and trace-summary shows no step-plan row."""
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path)
        engine = LightNAS(LightNASConfig.tiny(latency_target_ms=1.0, seed=1),
                          predictor=tiny_predictor)
        result = engine.search(journal=journal)
        journal.close()
        events = read_journal(path)
        assert result.num_search_steps > 0
        assert [e["event"] for e in events].count("epoch") == 16
        assert not [e for e in events if "plan_stats" in e]
        capsys.readouterr()
        assert main(["trace-summary", path]) == 0
        summary = capsys.readouterr().out
        assert "phase timers" in summary
        assert "step plans" not in summary

    @staticmethod
    def _alpha_epoch(engine):
        """One w-epoch (so the weights carry gradients), then one α-epoch."""
        cfg = engine.config
        state = engine._fresh_state()
        sampler = gumbel.GumbelSampler(
            gumbel.TemperatureSchedule(cfg.tau_initial, cfg.tau_floor,
                                       cfg.epochs), engine.rng)
        with nn.dtype_scope("float64"):
            engine._train_weights_epoch(sampler, state.alpha, state.w_opt, 0)
            assert any(p.grad is not None
                       for p in engine.supernet.parameters())
            engine._update_alpha_epoch(sampler, state, 1)
        return state

    def test_alpha_epoch_leaves_no_weight_gradient(self, tiny_predictor):
        """The α-step differentiates only α and λ (Eq. 12): the supernet is
        frozen for the epoch, so no weight ends it holding a gradient, and
        every weight is trainable again for the next w-epoch."""
        engine = LightNAS(LightNASConfig.tiny(latency_target_ms=2.3, seed=0,
                                              steps_per_epoch=2),
                          predictor=tiny_predictor)
        state = self._alpha_epoch(engine)
        assert state.alpha.grad is not None
        params = engine.supernet.parameters()
        assert params
        assert all(p.grad is None for p in params)
        assert all(p.requires_grad for p in params)

    def test_alpha_epoch_unfreezes_when_the_step_raises(self, tiny_predictor,
                                                        monkeypatch):
        engine = LightNAS(LightNASConfig.tiny(latency_target_ms=2.3, seed=0,
                                              steps_per_epoch=2),
                          predictor=tiny_predictor)
        frozen = []

        def failing_step(*args, **kwargs):
            frozen.append(not any(p.requires_grad
                                  for p in engine.supernet.parameters()))
            raise RuntimeError("alpha step failed")

        monkeypatch.setattr(lightnas, "_alpha_step", failing_step)
        with pytest.raises(RuntimeError, match="alpha step failed"):
            self._alpha_epoch(engine)
        assert frozen == [True]
        params = engine.supernet.parameters()
        assert all(p.requires_grad and p.grad is None for p in params)

    def test_default_predictor_built_when_missing(self, tmp_path,
                                                  monkeypatch):
        """The library fit is the recipe the CLI caches, and writes no
        file."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        cfg = LightNASConfig.tiny(latency_target_ms=2.3, seed=2,
                                  epochs=3, steps_per_epoch=2, warmup_epochs=1)
        engine = LightNAS(cfg)
        assert engine.predictor.fitted
        assert os.listdir(tmp_path) == []
        cached, _ = fit_latency_predictor(cfg.space, LatencyModel(cfg.space),
                                          **LightNAS.predictor_recipe(2))
        feats = cfg.space.encode_many(
            cfg.space.sample_indices(32, np.random.default_rng(0)))
        assert np.array_equal(engine.predictor.predict(feats),
                              cached.predict(feats))

    def test_profile_ops_journals_layer_profile(self, tiny_predictor,
                                                tmp_path):
        """Per-layer forward spans go to ``layer_profile``, never into
        ``op_profile`` (whose keys are op kinds that sum to the op total)."""
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        cfg = LightNASConfig.tiny(latency_target_ms=1.0, seed=0, epochs=3,
                                  profile_ops=True)
        LightNAS(cfg, predictor=tiny_predictor).search(journal=journal)
        journal.close()
        epochs = [e for e in read_journal(journal.path)
                  if e["event"] == "epoch"]
        assert len(epochs) == 3
        ops = {op.name for op in cfg.space.operators}
        for event in epochs:
            per_layer = {}
            for key, row in event["layer_profile"].items():
                layer, op = key.split("/")
                assert op in ops
                per_layer[layer] = per_layer.get(layer, 0) + row["calls"]
            assert sorted(per_layer) == [
                f"layer {l}" for l in range(cfg.space.num_layers)]
            # every single-path forward runs each layer exactly once
            assert len(set(per_layer.values())) == 1
            assert not any(k.startswith("layer ")
                           for k in event["op_profile"])
