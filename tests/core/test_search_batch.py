"""A grid of surrogate searches runs as one stacked α-step, bit-identical
per slot.

:class:`SearchBatch` stacks S searches that differ only in target and
seed into one ``(S, L, K)`` α-step; :func:`run_grid` builds those batches
while each search keeps its own ``LightNAS.search`` call.  Pinned
contracts:

* at S = 1, 2 and 4, with mixed targets and seeds and the latency MLP,
  energy MLP and analytic MACs predictors, every slot's result,
  trajectory and per-epoch checkpoint (final α, Adam moments, λ and λ
  history, RNG state) equal its own sequential search — compiled and
  under ``nn.plans(False)``;
* one stacked plan serves the whole grid: summed over a 4-slot grid's
  journals, ``plan_stats`` read 1 compile, and each slot reports its own
  N−1 replays and the batch's slot count;
* a grid whose configs differ in a shared field runs one batch per
  shared config, still bit-identical;
* slots must share everything but target and seed.
"""

import glob
import os

import numpy as np
import pytest

from repro import nn
from repro.core.lightnas import (LightNAS, LightNASConfig, SearchBatch,
                                 run_grid)
from repro.predictor.analytic import AnalyticCostPredictor
from repro.predictor.dataset import collect_energy_dataset
from repro.predictor.mlp import MLPPredictor
from repro.runtime.checkpoint import load_checkpoint
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


def run(configs, predictor, root, stacked=False):
    """One search per config, each checkpointing every epoch into its own
    sub-directory: in order, or stacked through ``run_grid``."""
    names = [f"slot{index}" for index in range(len(configs))]
    if stacked:
        return run_grid(configs, predictor, checkpoint_root=root,
                        checkpoint_every=1, names=names).values()
    return [LightNAS(config, predictor=predictor).search(
                checkpoint_dir=os.path.join(root, name), checkpoint_every=1)
            for config, name in zip(configs, names)]


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
                  stacked=True)
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
                      stacked=True)
    for a, b in zip(stacked, sequential):
        assert_same_search(a, b)


def test_grid_journals_share_one_compile(full_space, full_predictor,
                                         tmp_path):
    journal = RunJournal(str(tmp_path / "grid.jsonl"))
    run_grid(configs(full_space, "latency_ms", 24.0, 4), full_predictor,
             journal=journal).values()
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


def test_grid_runs_one_batch_per_shared_config(full_space, full_predictor,
                                              tmp_path):
    """Shaped like the τ ablation: 3 schedules × 2 seeds at one target run
    as three 2-slot batches, each slot equal to its sequential search."""
    grid_configs = [
        LightNASConfig.paper(24.0, space=full_space, seed=seed,
                             epochs=EPOCHS, steps_per_epoch=STEPS,
                             tau_initial=tau_initial, tau_floor=tau_floor)
        for tau_initial, tau_floor in ((5.0, 0.1), (5.0, 4.999),
                                       (0.10001, 0.1))
        for seed in (0, 1)]
    names = [f"tau_{c.tau_initial:g}_{c.tau_floor:g}_seed_{c.seed}"
             for c in grid_configs]
    journal = RunJournal(str(tmp_path / "grid.jsonl"))
    stacked = run_grid(grid_configs, full_predictor, journal=journal,
                       names=names).values()
    journal.close()
    sequential = [LightNAS(config, predictor=full_predictor).search()
                  for config in grid_configs]
    for a, b in zip(stacked, sequential):
        assert_same_search(a, b)
    events = read_journal(journal.path)
    assert [e["batch_slots"] for e in events
            if e["event"] == "run_header"] == [2] * 6
    # one compile per batch, taken by its first slot
    assert [e["plan_stats"]["plans_compiled"] for e in events
            if e["event"] == "run_end" and "plan_stats" in e] == [
        1, 0, 1, 0, 1, 0]


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
    """Two equal configs are one search run twice, whatever their names."""
    (config,) = configs(full_space, "latency_ms", 24.0, 1)
    for names in (None, ["a", "b"]):
        with pytest.raises(ValueError, match="already holds the search "
                                             "with target 24 and seed 0"):
            run_grid([config, config], full_predictor, names=names)
