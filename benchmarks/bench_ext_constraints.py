"""Extension — constraint generality beyond the paper's experiments.

The paper closes §3.5 claiming LightNAS "can be effortlessly plugged into
various scenarios, in which we only need to replace the latency predictor
with the predictor of the target scenario".  This bench exercises that claim
past Figure 8's energy swap:

* a **MACs-constrained** search using the exact analytic predictor (the
  mobile setting's "multi-adds under 600M" as a first-class constraint);
* a **joint latency + MACs** search with per-constraint inequality duals
  (the multi-constraint extension).

The timed kernel is one analytic-predictor inference (exact and cheap).
"""

import numpy as np

from conftest import emit
from repro.core.lightnas import LightNASConfig, run_grid
from repro.core.multi_objective import (
    Constraint,
    MultiConstraintConfig,
    MultiConstraintLightNAS,
)
from repro.experiments.reporting import render_table, save_json
from repro.hardware.flops import count_macs
from repro.predictor.analytic import AnalyticCostPredictor

MACS_TARGETS = (350.0, 420.0, 480.0)
JOINT = (26.0, 420.0)  # latency ms, MACs M


def test_ext_constraint_generality(ctx, benchmark):
    macs_predictor = AnalyticCostPredictor(ctx.space, "macs_m")
    rows = []

    achieved = []
    configs = [LightNASConfig.paper(target, space=ctx.space, seed=0,
                                    metric_name="macs_m")
               for target in MACS_TARGETS]
    results = run_grid(configs, macs_predictor).values()
    for target, result in zip(MACS_TARGETS, results):
        macs = count_macs(ctx.space, result.architecture) / 1e6
        top1 = ctx.oracle.evaluate(result.architecture).top1
        achieved.append(macs)
        rows.append([f"MACs = {target:g} M", f"{macs:.1f} M MACs", top1,
                     ctx.latency_model.latency_ms(result.architecture)])

    joint_config = MultiConstraintConfig(
        space=ctx.space,
        constraints=[
            Constraint("latency_ms", ctx.latency_predictor, JOINT[0]),
            Constraint("macs_m", macs_predictor, JOINT[1]),
        ],
        epochs=70, steps_per_epoch=40, seed=0)
    joint_result, joint_metrics = MultiConstraintLightNAS(
        joint_config, ctx.oracle).search()
    joint_top1 = ctx.oracle.evaluate(joint_result.architecture).top1
    rows.append([
        f"latency ≤ {JOINT[0]:g} ms AND MACs ≤ {JOINT[1]:g} M",
        f"{joint_metrics['latency_ms']:.2f} ms / "
        f"{joint_metrics['macs_m']:.1f} M",
        joint_top1,
        ctx.latency_model.latency_ms(joint_result.architecture),
    ])

    emit("ext_constraints", render_table(
        ["constraint", "achieved", "top-1 %", "measured ms"],
        rows, title="Extension — constraint generality (exact MACs, joint budgets)"))
    save_json("ext_constraints", {
        "macs_targets": list(MACS_TARGETS), "macs_achieved": achieved,
        "joint": {"targets": list(JOINT), "metrics": joint_metrics,
                  "top1": joint_top1},
    })

    # MACs searches: exact predictor ⇒ tight convergence, monotone accuracy
    for target, macs in zip(MACS_TARGETS, achieved):
        assert abs(macs - target) / target < 0.06
    tops = [row[2] for row in rows[:3]]
    assert tops[-1] > tops[0]
    # joint search respects both ceilings and saturates at least one
    assert joint_metrics["latency_ms"] <= JOINT[0] * 1.02
    assert joint_metrics["macs_m"] <= JOINT[1] * 1.02
    slack = min(1 - joint_metrics["latency_ms"] / JOINT[0],
                1 - joint_metrics["macs_m"] / JOINT[1])
    assert slack < 0.08

    rng = np.random.default_rng(0)
    arch = ctx.space.sample(rng)
    benchmark(macs_predictor.predict_arch, arch)
