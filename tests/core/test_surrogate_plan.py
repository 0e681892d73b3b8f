"""Surrogate-mode α-steps run as one compiled, replayed step plan.

The surrogate step (oracle capacity loss + metric predictor + STE on the
L×K gate matrix) traces the same op sequence whatever path the Gumbel
draw selects, so a search compiles it once under a constant key and
replays it on every later step.  Pinned contracts:

* plans on vs off (``use_plans=False`` runs the same step function
  eagerly) give bit-identical searches — paper config, latency and energy
  MLP predictors and the analytic MACs predictor;
* a search's plan counters are exactly one eager step (the first sighting),
  one compile and a replay for every other step;
* the fitted predictor enters the step as constants: its weights and
  ``.grad`` are untouched by a search;
* checkpoint/resume and jobs=N fan-out stay bit-identical with plans on.
"""

import os

import numpy as np
import pytest

from repro.core.lightnas import LightNAS, LightNASConfig
from repro.hardware.latency import LatencyModel
from repro.predictor.analytic import AnalyticCostPredictor
from repro.predictor.dataset import (collect_energy_dataset,
                                     collect_latency_dataset)
from repro.predictor.mlp import MLPPredictor
from repro.runtime.parallel import FleetTask, RunFleet
from repro.runtime.telemetry import NullJournal, RunJournal, read_journal

EPOCHS = 8
STEPS = 12


@pytest.fixture(scope="module")
def energy_predictor(full_space, full_energy_model):
    """A small energy MLP: parity needs a fitted predictor, not a good one."""
    rng = np.random.default_rng(21)
    data = collect_energy_dataset(full_energy_model, 600, rng)
    predictor = MLPPredictor(full_space, hidden=(64, 32), seed=1)
    predictor.fit(data, epochs=15, batch_size=128, lr=3e-3,
                  weight_decay=0.0)
    return predictor


@pytest.fixture(scope="module")
def predictors(full_space, full_predictor, energy_predictor):
    return {
        "latency_ms": (full_predictor, 24.0),
        "energy_mj": (energy_predictor, 500.0),
        "macs_m": (AnalyticCostPredictor(full_space, "macs_m"), 300.0),
    }


def paper_engine(space, predictor, target, metric, use_plans=True, seed=1,
                 epochs=EPOCHS):
    config = LightNASConfig.paper(target, space=space, seed=seed,
                                  epochs=epochs, steps_per_epoch=STEPS,
                                  metric_name=metric, use_plans=use_plans)
    return LightNAS(config, predictor=predictor)


def assert_same_search(a, b):
    assert a.architecture == b.architecture
    assert a.predicted_metric == b.predicted_metric
    assert a.final_lambda == b.final_lambda
    assert a.num_search_steps == b.num_search_steps
    arrays_a, arrays_b = a.trajectory.as_arrays(), b.trajectory.as_arrays()
    assert set(arrays_a) == set(arrays_b)
    for key in arrays_a:
        assert np.array_equal(arrays_a[key], arrays_b[key]), key


@pytest.mark.parametrize("metric", ["latency_ms", "energy_mj", "macs_m"])
def test_plans_on_and_off_are_bit_identical(full_space, predictors, metric):
    predictor, target = predictors[metric]
    planned_engine = paper_engine(full_space, predictor, target, metric)
    eager_engine = paper_engine(full_space, predictor, target, metric,
                                use_plans=False)
    planned = planned_engine.search()
    eager = eager_engine.search()
    assert_same_search(planned, eager)

    steps = EPOCHS * STEPS
    assert planned_engine.programs.stats()["replays"] == steps - 2
    eager_stats = eager_engine.programs.stats()
    assert eager_stats["plans_compiled"] == 0
    assert eager_stats["eager_steps"] == steps


def test_journal_plan_stats_one_compile_replays_the_rest(
        full_space, full_predictor, tmp_path):
    journal = RunJournal(str(tmp_path / "run.jsonl"))
    engine = paper_engine(full_space, full_predictor, 24.0, "latency_ms")
    engine.search(journal=journal)
    journal.close()
    (run_end,) = [e for e in read_journal(journal.path)
                  if e["event"] == "run_end"]
    stats = run_end["plan_stats"]
    steps = EPOCHS * STEPS
    assert (stats["plans_compiled"], stats["eager_steps"],
            stats["replays"]) == (1, 1, steps - 2)
    assert stats["plan_evictions"] == 0
    assert stats["epoch_plans_compiled"] == 0  # surrogate needs no chain


def test_predictor_is_a_constant_of_the_step(full_space, full_predictor):
    before = {key: value.copy()
              for key, value in full_predictor.state_dict().items()}
    paper_engine(full_space, full_predictor, 24.0, "latency_ms").search()
    after = full_predictor.state_dict()
    for key, value in before.items():
        assert np.array_equal(value, after[key]), key
    for param in full_predictor._model.parameters():
        assert not param.requires_grad
        assert param.grad is None


def test_fit_trains_and_refreezes(tiny_space, tiny_predictor):
    clone = MLPPredictor(tiny_space, hidden=(64, 32), seed=0)
    clone.load_state_dict(tiny_predictor.state_dict())
    assert not any(p.requires_grad for p in clone._model.parameters())

    rng = np.random.default_rng(4)
    data = collect_latency_dataset(LatencyModel(tiny_space), 64, rng)
    weights = [p.data.copy() for p in clone._model.parameters()]
    clone.fit(data, epochs=2, batch_size=32)
    params = clone._model.parameters()
    assert any(not np.array_equal(w, p.data) for w, p in zip(weights, params))
    assert not any(p.requires_grad or p.grad is not None for p in params)


class _KillAtEpoch(NullJournal):
    def __init__(self, kill_epoch: int) -> None:
        super().__init__()
        self.kill_epoch = kill_epoch

    def epoch(self, **fields) -> None:
        if fields["epoch"] == self.kill_epoch:
            raise KeyboardInterrupt(f"injected crash at {self.kill_epoch}")


@pytest.mark.parametrize("kill_epoch", [1, 5])
def test_resume_with_plans_is_bit_for_bit(full_space, full_predictor,
                                          tmp_path, kill_epoch):
    reference = paper_engine(full_space, full_predictor, 24.0,
                             "latency_ms").search()
    directory = str(tmp_path / "ckpts")
    with pytest.raises(KeyboardInterrupt):
        paper_engine(full_space, full_predictor, 24.0, "latency_ms").search(
            checkpoint_dir=directory, checkpoint_every=1,
            journal=_KillAtEpoch(kill_epoch))
    engine = paper_engine(full_space, full_predictor, 24.0, "latency_ms")
    resumed = engine.search(resume_from=directory)
    assert_same_search(resumed, reference)
    # the resumed run compiled its own plan and replayed it
    assert engine.programs.stats()["plans_compiled"] == 1
    assert engine.programs.stats()["replays"] > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_jobs4_fan_out_matches_sequential(tiny_space, tiny_predictor):
    def tasks():
        out = []
        for target in (2.0, 2.3):
            for seed in (0, 1):
                config = LightNASConfig.paper(target, space=tiny_space,
                                              seed=seed, epochs=10,
                                              steps_per_epoch=8)

                def fn(ctx, config=config):
                    engine = LightNAS(config, predictor=tiny_predictor)
                    result = engine.search()
                    return {
                        "arch": list(result.architecture.op_indices),
                        "lambda": result.final_lambda,
                        "trajectory": list(result.trajectory.predicted_metric),
                        "valid_loss": list(result.trajectory.valid_loss),
                        "replays": engine.programs.stats()["replays"],
                    }
                out.append(FleetTask(name=f"t{target:g}_s{seed}", fn=fn))
        return out

    sequential = RunFleet(jobs=1, seed=0).run(tasks()).values()
    fanned = RunFleet(jobs=4, seed=0).run(tasks()).values()
    assert sequential == fanned
    assert all(value["replays"] == 10 * 8 - 2 for value in fanned)
