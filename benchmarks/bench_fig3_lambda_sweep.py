"""Figure 3 — the manual λ sweep that motivates LightNAS.

Runs the FBNet engine (fixed-coefficient latency penalty, Eq. 3) over a grid
of λ values and reports, per λ: the searched architecture's measured latency
and its quick-evaluation (50-epoch) accuracy.  The paper's observations to
reproduce:

* λ controls the accuracy/latency trade-off monotonically (noise aside);
* hitting a *specific* latency requires trial-and-error over λ —
  neighbouring targets need λ values close together on a log scale;
* beyond a threshold, the search collapses toward all-SkipConnect.

The timed kernel is one FBNet relaxation + objective evaluation step.
"""

import numpy as np

from conftest import emit
from repro.baselines.gradient import FBNetSearch, GradientNASConfig
from repro.experiments.reporting import render_table, save_json
from repro.runtime.parallel import FleetTask, RunFleet

LAMBDA_GRID = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0)


def _lambda_task(ctx, lam: float) -> FleetTask:
    # the fitted predictor and cost tables live in ctx, captured pre-fork;
    # the worker sends back only one small row dict
    def fn(task_ctx):
        config = GradientNASConfig(space=ctx.space, epochs=30,
                                   steps_per_epoch=20, latency_lambda=lam,
                                   seed=0)
        result = FBNetSearch(config, ctx.oracle,
                             ctx.latency_predictor).search()
        return {
            "latency": ctx.latency_model.latency_ms(result.architecture),
            "top1": ctx.oracle.evaluate(result.architecture, epochs=50).top1,
            "depth": result.architecture.depth(ctx.space.skip_index),
        }

    return FleetTask(name=f"lambda_{lam:g}", fn=fn, header={"lambda": lam})


def test_fig3_fbnet_lambda_sweep(ctx, jobs, benchmark):
    fleet = RunFleet(jobs=jobs)
    values = fleet.run([_lambda_task(ctx, lam)
                        for lam in LAMBDA_GRID]).values()
    rows = []
    latencies = []
    depths = []
    for lam, value in zip(LAMBDA_GRID, values):
        latencies.append(value["latency"])
        depths.append(value["depth"])
        rows.append([f"{lam:g}", value["latency"], value["top1"],
                     value["depth"]])

    emit("fig3_lambda_sweep", render_table(
        ["λ (fixed)", "latency ms", "top-1 % (50 ep)", "depth (non-skip)"],
        rows,
        title="Figure 3 — FBNet search results under different fixed λ"))
    save_json("fig3_lambda_sweep", {
        "lambda": list(LAMBDA_GRID), "latency_ms": latencies,
        "depth": depths,
    })

    # latency decreases (weakly) as λ grows across the grid
    assert latencies[0] > latencies[-1]
    corr = np.corrcoef(np.log10(np.array(LAMBDA_GRID[1:])),
                       np.array(latencies[1:]))[0, 1]
    assert corr < -0.7
    # large λ collapses the network toward SkipConnect
    assert depths[-1] < depths[0]
    assert depths[-1] <= ctx.space.num_layers - 5

    # timed kernel: one relaxation + penalised loss evaluation
    engine = FBNetSearch(
        GradientNASConfig(space=ctx.space, latency_lambda=0.01, seed=0),
        ctx.oracle, ctx.latency_predictor)
    from repro import nn

    alpha = nn.Tensor(ctx.space.uniform_alpha())

    def step():
        weights = engine.relax(alpha, 0)
        loss = engine.oracle.differentiable_loss(weights)
        return float((loss + engine._latency_tensor(weights) * 0.01).data)

    benchmark(step)
