#!/usr/bin/env python
"""Paper-scale scenario: LightNets under 20/24/28 ms on the simulated Xavier.

Reproduces the §4.2 workflow on the full search space (7^21 candidates):

1. measurement campaign → MLP latency predictor (cached across runs),
2. one search per latency target — *no λ tuning, one run each*,
3. Table-2-style evaluation rows (oracle top-1/top-5, measured latency,
   multi-adds), compared against the manual MobileNetV2 baseline.
"""

from repro import LightNASConfig, run_grid
from repro.baselines import ScalingBaseline
from repro.eval import ImageNetEvaluator
from repro.experiments import full_context, render_table

TARGETS_MS = (20.0, 24.0, 28.0)


def main() -> None:
    print("loading experiment context (first run trains the predictor) ...")
    ctx = full_context()
    print(f"latency predictor RMSE: {ctx.latency_predictor_rmse:.3f} ms")

    evaluator = ImageNetEvaluator(ctx.space, ctx.latency_model, ctx.oracle)
    rows = []

    reference = ScalingBaseline(device=ctx.device).reference()
    rows.append(["MobileNetV2 (manual)", "-", reference.top1, reference.top5,
                 reference.latency_ms, "-"])

    # one search per target, run as one grid
    configs = [LightNASConfig.paper(target, space=ctx.space, seed=1)
               for target in TARGETS_MS]
    results = run_grid(configs, ctx.latency_predictor).values()
    for target, result in zip(TARGETS_MS, results):
        row = evaluator.evaluate(result.architecture,
                                 name=f"LightNet-{target:.0f}ms")
        rows.append([row.name, f"{target:.0f}", row.top1, row.top5,
                     ctx.latency_model.latency_ms(result.architecture),
                     f"{result.final_lambda:+.3f}"])
        print(f"  target {target} ms → measured "
              f"{ctx.latency_model.latency_ms(result.architecture):.2f} ms "
              f"(one search, no λ sweep)")

    print()
    print(render_table(
        ["architecture", "target", "top-1 %", "top-5 %", "latency ms", "final λ"],
        rows, title="LightNets vs the manual baseline (simulated Xavier)"))


if __name__ == "__main__":
    main()
