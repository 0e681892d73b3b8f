#!/usr/bin/env python
"""Transferability to object detection (Table 3).

Drops searched LightNets and baseline backbones into the SSDLite detection
surrogate and reports COCO-style AP alongside detection latency — better
classification backbones transfer to better detectors, and LightNets reach
comparable AP at lower detection latency.
"""

from repro import LightNASConfig, run_grid
from repro.baselines import ScalingBaseline
from repro.eval import DetectionEvaluator
from repro.experiments import full_context, render_table
from repro.search_space import Architecture

TARGETS_MS = (20.0, 24.0, 28.0)


def main() -> None:
    ctx = full_context()
    evaluator = DetectionEvaluator(ctx.space, ctx.latency_model, ctx.oracle)

    results = []
    # The manual baseline: the uniform MobileNetV2-like stack.
    uniform = Architecture((ScalingBaseline.UNIFORM_OP,) * ctx.space.num_layers)
    results.append(evaluator.evaluate(uniform, name="MobileNetV2"))

    configs = [LightNASConfig.paper(target, space=ctx.space, seed=1)
               for target in TARGETS_MS]
    searches = run_grid(configs, ctx.latency_predictor).values()
    for target, searched in zip(TARGETS_MS, searches):
        results.append(evaluator.evaluate(searched.architecture,
                                          name=f"LightNet-{target:.0f}ms"))
        print(f"  searched backbone for {target:.0f} ms")

    rows = [[r.name, r.ap, r.ap50, r.ap75, r.ap_small, r.ap_medium, r.ap_large,
             r.latency_ms] for r in results]
    print()
    print(render_table(
        ["backbone", "AP", "AP50", "AP75", "APS", "APM", "APL", "latency ms"],
        rows, title="SSDLite detection transfer (simulated COCO surrogate)"))


if __name__ == "__main__":
    main()
