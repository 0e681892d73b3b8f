"""The step compiler fits the one step it compiles: the surrogate α-step.

Pinned contracts:

* every shipped predictor kind — latency MLP, energy MLP, analytic MACs —
  in the paper and tiny spaces compiles exactly one plan per search, and
  together those searches trace exactly the op kinds the compiler lowers;
* tracing an op kind the compiler does not lower, or a backward no
  replay kernel covers, raises :class:`PlanError` naming it and leaves
  no tracer installed.

Replay mismatches (shapes, input names, default dtype) are pinned in
``tests/nn/test_plan.py``; the ``plan_stats`` key set in
``tests/core/test_surrogate_plan.py``.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.lightnas import LightNAS, LightNASConfig, SearchBatch
from repro.nn import ops, plan
from repro.nn.plan import PlanError, StepProgram
from repro.predictor.analytic import AnalyticCostPredictor
from repro.predictor.dataset import collect_energy_dataset
from repro.predictor.mlp import MLPPredictor

LOWERED = {"amax", "sub", "exp", "sum", "log", "add", "mul", "div", "ste",
           "neg", "reshape", "transpose", "matmul", "relu"}


def _energy_mlp(space, energy_model):
    """A small energy MLP: the search needs a fitted predictor, not a good
    one."""
    rng = np.random.default_rng(21)
    data = collect_energy_dataset(energy_model, 300, rng)
    predictor = MLPPredictor(space, hidden=(32, 16), seed=1)
    predictor.fit(data, epochs=5, batch_size=128, lr=3e-3,
                  weight_decay=0.0)
    return predictor


@pytest.fixture(scope="module")
def shipped_predictors(full_space, tiny_space, full_predictor,
                       tiny_predictor, full_energy_model, tiny_energy_model):
    return {
        ("paper", "latency_ms"): (full_space, full_predictor),
        ("paper", "energy_mj"): (
            full_space, _energy_mlp(full_space, full_energy_model)),
        ("paper", "macs_m"): (
            full_space, AnalyticCostPredictor(full_space, "macs_m")),
        ("tiny", "latency_ms"): (tiny_space, tiny_predictor),
        ("tiny", "energy_mj"): (
            tiny_space, _energy_mlp(tiny_space, tiny_energy_model)),
        ("tiny", "macs_m"): (
            tiny_space, AnalyticCostPredictor(tiny_space, "macs_m")),
    }


def _search(space, predictor, metric, epochs=2, steps=3):
    # a target the predictor can reach: the metric of a sampled architecture
    target = float(predictor.predict_arch(
        space.sample(np.random.default_rng(0))))
    config = LightNASConfig.paper(target, space=space, seed=0, epochs=epochs,
                                  steps_per_epoch=steps, metric_name=metric)
    engine = LightNAS(config, predictor=predictor)
    batch = SearchBatch([engine], [engine._start(None)])
    engine.search(_batch=(batch, 0))
    return batch.program


def test_each_shipped_predictor_compiles_one_plan(shipped_predictors):
    traced = set()
    for (space_name, metric), (space, predictor) in \
            shipped_predictors.items():
        program = _search(space, predictor, metric)
        stats = program.stats()
        assert (stats["plans_compiled"], stats["replays"],
                stats["eager_steps"]) == (1, 5, 0), (space_name, metric)
        traced |= {rec.kind for rec in program.plan._records}
    # the compiler lowers the α-step's op kinds and nothing else
    assert set(plan._SIGNATURES) == LOWERED
    assert traced == LOWERED


@pytest.mark.parametrize("kind,call", [
    ("clip", lambda x: ops.clip(x, 0.0, 1.0)),
    ("getitem", lambda x: x[0]),
    ("sigmoid", lambda x: ops.sigmoid(x)),
    ("sqrt", lambda x: ops.sqrt(x * x)),
    ("pad2d", lambda x: ops.pad2d(x, 1)),
    ("conv2d", lambda x: ops.conv2d(
        x, nn.Tensor(np.ones((2, 2, 3, 3))))),
])
def test_unlowered_op_kind_raises_naming_it(kind, call):
    w = nn.Parameter(np.full((1, 2, 4, 4), 0.5), name="w")

    def fn(ts):
        return {"loss": ops.mean(call(ts["x"] * w))}

    program = StepProgram("t")
    with pytest.raises(PlanError, match=repr(kind)) as info:
        program.run({"x": np.ones((1, 2, 4, 4))}, fn)
    assert "plans(False)" in str(info.value)
    assert ops._TRACER is None
    assert program.stats()["plans_compiled"] == 0


def test_unlowered_backward_raises_naming_it():
    """A broadcast ``add`` gradient (a bias) has no replay kernel."""
    bias = nn.Parameter(np.zeros(3), name="bias")
    program = StepProgram("t")
    with pytest.raises(PlanError, match="'add'"):
        program.run({"x": np.ones((2, 3))},
                    lambda ts: {"loss": ops.mean(ts["x"] + bias)})
    assert ops._TRACER is None
