"""Surrogate-mode α-steps run as one compiled, replayed step plan.

The surrogate step (oracle capacity loss + metric predictor + STE on the
L×K gate matrix) traces the same op sequence whatever path the Gumbel
draw selects, so a search compiles it once and replays it on every later
step.  Pinned contracts:

* plans on vs off (``nn.plans(False)`` runs the same step function
  eagerly) give bit-identical searches — paper config, latency and energy
  MLP predictors and the analytic MACs predictor;
* a search's plan counters are exactly one compile (the first step) and a
  replay for every other step, with no eager step;
* the fitted predictor enters the step as constants: its weights and
  ``.grad`` are untouched by a search;
* checkpoint/resume and jobs=N fan-out stay bit-identical with plans on;
* the search runs in float64 whatever the caller's default dtype.
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.core.lightnas import (LightNAS, LightNASConfig, SearchBatch,
                                 run_grid)
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


def paper_engine(space, predictor, target, metric, seed=1, epochs=EPOCHS):
    config = LightNASConfig.paper(target, space=space, seed=seed,
                                  epochs=epochs, steps_per_epoch=STEPS,
                                  metric_name=metric)
    return LightNAS(config, predictor=predictor)


def search_in_batch(engine, resume_from=None, **kwargs):
    """Run ``engine``'s search as the lone slot of a batch built here;
    returns the result and the batch's step program."""
    batch = SearchBatch([engine], [engine._start(resume_from)])
    return engine.search(_batch=(batch, 0), **kwargs), batch.program


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
    eager_engine = paper_engine(full_space, predictor, target, metric)
    planned, planned_program = search_in_batch(planned_engine)
    with nn.plans(False):
        eager, eager_program = search_in_batch(eager_engine)
    assert_same_search(planned, eager)

    steps = EPOCHS * STEPS
    assert planned_program.stats()["replays"] == steps - 1
    eager_stats = eager_program.stats()
    assert eager_stats["plans_compiled"] == 0
    assert eager_stats["eager_steps"] == steps


def test_journal_plan_stats_one_compile_replays_the_rest(
        full_space, full_predictor, tmp_path):
    journal = RunJournal(str(tmp_path / "run.jsonl"))
    engine = paper_engine(full_space, full_predictor, 24.0, "latency_ms")
    _, program = search_in_batch(engine, journal=journal)
    journal.close()
    (run_end,) = [e for e in read_journal(journal.path)
                  if e["event"] == "run_end"]
    stats = run_end["plan_stats"]
    steps = EPOCHS * STEPS
    assert stats == {"plans_compiled": 1, "eager_steps": 0,
                     "replays": steps - 1,
                     "arena_bytes": program.plan.nbytes}
    assert stats["arena_bytes"] > 0


@pytest.mark.parametrize("grid", [False, True], ids=["lone", "grid"])
def test_search_ignores_the_callers_default_dtype(full_space, full_predictor,
                                                  tmp_path, grid):
    """A surrogate search always runs in float64: a caller's float32
    default dtype once leaked into α, λ and the step, shifting the result,
    and later into the start states of a 2 × 2 ``run_grid``."""
    slots = ([(20.0, 0), (20.0, 1), (24.0, 0), (24.0, 1)] if grid
             else [(24.0, 1)])
    configs = [LightNASConfig.paper(target, space=full_space, seed=seed,
                                    epochs=EPOCHS, steps_per_epoch=STEPS)
               for target, seed in slots]
    references = [LightNAS(config, predictor=full_predictor).search()
                  for config in configs]
    journal = RunJournal(str(tmp_path / "run.jsonl"))
    with nn.dtype_scope("float32"):
        if grid:
            results = run_grid(configs, full_predictor,
                               journal=journal).values()
        else:
            results = [LightNAS(configs[0], predictor=full_predictor).search(
                journal=journal)]
        assert nn.get_default_dtype() == np.float32
    journal.close()
    for result, reference in zip(results, references):
        assert_same_search(result, reference)
    assert sum(e["plan_stats"]["plans_compiled"]
               for e in read_journal(journal.path)
               if e["event"] == "run_end" and "plan_stats" in e) == 1


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
    resumed, program = search_in_batch(engine, resume_from=directory)
    assert_same_search(resumed, reference)
    # the resumed run compiled its own plan and replayed it
    assert program.stats()["plans_compiled"] == 1
    assert program.stats()["replays"] > 0


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
                    result, program = search_in_batch(engine)
                    return {
                        "arch": list(result.architecture.op_indices),
                        "lambda": result.final_lambda,
                        "trajectory": list(result.trajectory.predicted_metric),
                        "valid_loss": list(result.trajectory.valid_loss),
                        "replays": program.stats()["replays"],
                    }
                out.append(FleetTask(name=f"t{target:g}_s{seed}", fn=fn))
        return out

    sequential = RunFleet(jobs=1).run(tasks()).values()
    fanned = RunFleet(jobs=4).run(tasks()).values()
    assert sequential == fanned
    assert all(value["replays"] == 10 * 8 - 1 for value in fanned)
