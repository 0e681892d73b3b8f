"""A grid of surrogate searches runs as one stacked α-step, bit-identical
per slot.

:class:`SearchBatch` stacks S searches that differ only in target and
seed into one ``(S, L, K)`` α-step; :class:`SearchGrid` builds those
batches on demand while each search keeps its own ``LightNAS.search``
call.  Pinned contracts:

* at S = 1, 2 and 4, with mixed targets and seeds and the latency MLP,
  energy MLP and analytic MACs predictors, every slot's result,
  trajectory and per-epoch checkpoint (final α, Adam moments, λ and λ
  history, RNG state) equal its own sequential search — compiled and
  under ``nn.plans(False)``;
* one stacked plan serves the whole grid: summed over a 4-slot grid's
  journals, ``plan_stats`` read 1 compile, and each slot reports its own
  N−1 replays and the batch's slot count;
* a slot whose starting state changed after its batch was built runs as a
  batch of one, still bit-identical;
* slots must share everything but target and seed.
"""

import glob
import os

import numpy as np
import pytest

from repro import nn
from repro.core.lightnas import (LightNAS, LightNASConfig, SearchBatch,
                                 SearchGrid)
from repro.predictor.analytic import AnalyticCostPredictor
from repro.predictor.dataset import collect_energy_dataset
from repro.predictor.mlp import MLPPredictor
from repro.runtime.checkpoint import load_checkpoint
from repro.runtime.parallel import FleetTask, RunFleet
from repro.runtime.telemetry import RunJournal, read_journal

EPOCHS = 5
STEPS = 8

#: (target, seed) per slot, as multiples of each metric's base target
SLOTS = [(1.0, 0), (0.85, 3), (1.2, 1), (1.0, 2)]


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


def configs(space, metric, base, slots):
    return [LightNASConfig.paper(base * scale, space=space, seed=seed,
                                 epochs=EPOCHS, steps_per_epoch=STEPS,
                                 metric_name=metric)
            for scale, seed in SLOTS[:slots]]


def run(configs, predictor, root, grid=None):
    """One search per config, in order, each checkpointing every epoch."""
    if grid is not None:
        for config in configs:
            grid.add(config, predictor)
    results = []
    for index, config in enumerate(configs):
        results.append(LightNAS(config, predictor=predictor).search(
            checkpoint_dir=os.path.join(root, f"slot{index}"),
            checkpoint_every=1, grid=grid))
    return results


def assert_same_search(a, b):
    assert a.architecture == b.architecture
    assert a.predicted_metric == b.predicted_metric
    assert a.final_lambda == b.final_lambda
    assert a.num_search_steps == b.num_search_steps
    arrays_a, arrays_b = a.trajectory.as_arrays(), b.trajectory.as_arrays()
    assert set(arrays_a) == set(arrays_b)
    for key in arrays_a:
        assert np.array_equal(arrays_a[key], arrays_b[key]), key


def assert_same_checkpoints(dir_a, dir_b):
    names = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(dir_a, "*.npz")))
    assert names == sorted(os.path.basename(p)
                           for p in glob.glob(os.path.join(dir_b, "*.npz")))
    assert names
    for name in names:
        meta_a, arrays_a = load_checkpoint(os.path.join(dir_a, name))
        meta_b, arrays_b = load_checkpoint(os.path.join(dir_b, name))
        assert meta_a == meta_b, name  # incl. the RNG state
        assert set(arrays_a) == set(arrays_b), name
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key]), (name, key)


@pytest.mark.parametrize("slots", [1, 2, 4])
@pytest.mark.parametrize("metric", ["latency_ms", "energy_mj", "macs_m"])
def test_each_slot_equals_its_sequential_search(full_space, predictors,
                                                tmp_path, metric, slots):
    predictor, base = predictors[metric]
    grid_configs = configs(full_space, metric, base, slots)
    sequential = run(grid_configs, predictor, str(tmp_path / "seq"))
    stacked = run(grid_configs, predictor, str(tmp_path / "grid"),
                  grid=SearchGrid())
    for index, (a, b) in enumerate(zip(stacked, sequential)):
        assert_same_search(a, b)
        assert_same_checkpoints(str(tmp_path / "grid" / f"slot{index}"),
                                str(tmp_path / "seq" / f"slot{index}"))


def test_eager_grid_equals_compiled_sequential(full_space, full_predictor,
                                               tmp_path):
    grid_configs = configs(full_space, "latency_ms", 24.0, 2)
    sequential = run(grid_configs, full_predictor, str(tmp_path / "seq"))
    with nn.plans(False):
        stacked = run(grid_configs, full_predictor, str(tmp_path / "grid"),
                      grid=SearchGrid())
    for a, b in zip(stacked, sequential):
        assert_same_search(a, b)


def test_grid_journals_share_one_compile(full_space, full_predictor,
                                         tmp_path):
    grid = SearchGrid()
    tasks = []
    for config in configs(full_space, "latency_ms", 24.0, 4):
        grid.add(config, full_predictor)

        def fn(ctx, config=config):
            result = LightNAS(config, predictor=full_predictor).search(
                journal=ctx.journal, grid=grid)
            return result.final_lambda
        tasks.append(FleetTask(name=f"t{config.target:g}_s{config.seed}",
                               fn=fn))
    journal = RunJournal(str(tmp_path / "grid.jsonl"))
    RunFleet(jobs=1, journal=journal).run(tasks).values()
    journal.close()
    events = read_journal(journal.path)
    headers = [e for e in events if e["event"] == "run_header"]
    ends = [e for e in events if e["event"] == "run_end"
            and "plan_stats" in e]
    assert [h["batch_slots"] for h in headers] == [4, 4, 4, 4]
    steps = EPOCHS * STEPS
    stats = [end["plan_stats"] for end in ends]
    assert sum(s["plans_compiled"] for s in stats) == 1
    assert stats[0]["plans_compiled"] == 1 and stats[0]["arena_bytes"] > 0
    # every slot ran its own N steps: one traced, N−1 replayed
    assert all(s["replays"] == steps - 1 and s["eager_steps"] == 0
               for s in stats)
    assert all(s["arena_bytes"] == 0 for s in stats[1:])


def test_changed_start_runs_as_a_batch_of_one(full_space, full_predictor,
                                              tmp_path):
    first, second = configs(full_space, "latency_ms", 24.0, 2)
    directory = str(tmp_path / "ckpts")
    reference = LightNAS(second, predictor=full_predictor).search(
        checkpoint_dir=directory, checkpoint_every=2)

    grid = SearchGrid()
    grid.add(first, full_predictor)
    grid.add(second, full_predictor)  # registered as a fresh search ...
    LightNAS(first, predictor=full_predictor).search(grid=grid)
    journal = RunJournal(str(tmp_path / "second.jsonl"))
    # ... but resumed from epoch 2 when its own search starts
    resumed = LightNAS(second, predictor=full_predictor).search(
        resume_from=os.path.join(directory, "ckpt_epoch00001.npz"),
        journal=journal, grid=grid)
    journal.close()
    assert_same_search(resumed, reference)
    (header,) = [e for e in read_journal(journal.path)
                 if e["event"] == "run_header"]
    assert header["batch_slots"] == 1


def test_slots_must_share_all_but_target_and_seed(full_space,
                                                  full_predictor):
    a, b = configs(full_space, "latency_ms", 24.0, 2)
    b.lambda_lr *= 2
    engines = [LightNAS(config, predictor=full_predictor)
               for config in (a, b)]
    states = [engine._start(None) for engine in engines]
    with pytest.raises(ValueError, match="target and seed"):
        SearchBatch(engines, states)


def test_grid_rejects_a_duplicate_search(full_space, full_predictor):
    grid = SearchGrid()
    (config,) = configs(full_space, "latency_ms", 24.0, 1)
    grid.add(config, full_predictor)
    with pytest.raises(ValueError, match="already holds"):
        grid.add(config, full_predictor)
