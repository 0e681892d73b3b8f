"""Figure 6 — searched LightNets under different latency constraints.

The paper visualises the searched networks from 20 ms to 30 ms and observes
that, given a larger latency budget, the search "goes deeper and wider".
This bench prints the structural summary of each cached LightNet (operator
sequence, depth, mean kernel size, mean expansion ratio) and — because at
20–30 ms the full depth is affordable, so depth saturates at L — adds two
*tight* targets where the search must trade depth away, exposing the
depth-vs-budget trend.

The timed kernel is architecture derivation from α (Eq. 4).
"""

import numpy as np

from conftest import emit
from repro.core.lightnas import LightNASConfig, run_grid
from repro.experiments.reporting import render_table, save_json
from repro.search_space.space import Architecture

TIGHT_TARGETS = (8.0, 12.0)


def summarize(space, arch):
    kernels = [space.operators[k].kernel_size for k in arch.op_indices
               if not space.operators[k].is_skip]
    expansions = [space.operators[k].expansion for k in arch.op_indices
                  if not space.operators[k].is_skip]
    return {
        "depth": arch.depth(space.skip_index),
        "mean_kernel": float(np.mean(kernels)) if kernels else 0.0,
        "mean_expansion": float(np.mean(expansions)) if expansions else 0.0,
    }


def test_fig6_lightnet_structures(ctx, lightnets, benchmark):
    rows = []
    summaries = {}
    configs = [LightNASConfig.paper(target, space=ctx.space, seed=1)
               for target in TIGHT_TARGETS]
    results = run_grid(configs, ctx.latency_predictor).values()
    for target, result in zip(TIGHT_TARGETS, results):
        summaries[target] = summarize(ctx.space, result.architecture)
        summaries[target]["latency"] = ctx.latency_model.latency_ms(
            result.architecture)
    for target, arch in sorted(lightnets.items()):
        s = summarize(ctx.space, arch)
        s["latency"] = ctx.latency_model.latency_ms(arch)
        summaries[target] = s

    for target in sorted(summaries):
        s = summaries[target]
        rows.append([f"{target:.0f} ms", s["latency"], s["depth"],
                     s["mean_kernel"], s["mean_expansion"]])

    emit("fig6_architectures", render_table(
        ["target", "measured ms", "depth", "mean kernel", "mean expansion"],
        rows,
        title="Figure 6 — structure of searched LightNets vs latency budget"))
    save_json("fig6_architectures", {
        str(t): {**summaries[t],
                 "ops": list(lightnets[t].op_indices) if t in lightnets else None}
        for t in summaries
    })

    targets = sorted(summaries)
    widths = [summaries[t]["mean_expansion"] * summaries[t]["mean_kernel"]
              for t in targets]
    depths = [summaries[t]["depth"] for t in targets]
    # wider with larger budgets: width score increases from tightest to loosest
    assert widths[-1] > widths[0]
    # deeper with larger budgets: tight targets force skips, loose ones do not
    assert depths[0] < depths[-1]
    assert depths[-1] == ctx.space.num_layers

    alpha = np.random.default_rng(0).normal(size=(ctx.space.num_layers,
                                                  ctx.space.num_operators))
    benchmark(Architecture.from_alpha, alpha)
