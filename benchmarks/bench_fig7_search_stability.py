"""Figure 7 — search stability under various constraints.

The paper plots the search process for several targets, each averaged over
three runs, and observes that the engine always ends up at the given
constraint, exploring architectures *around* the target latency.  This bench
runs 3 seeds × 3 targets, prints the averaged trajectory tails, and asserts
per-run convergence.

The timed kernel is one full α/λ update step of the search engine.
"""

import numpy as np

from conftest import emit
from repro.core.lightnas import LightNAS, LightNASConfig, run_grid
from repro.experiments.reporting import ascii_series, render_table, save_json

TARGETS = (20.0, 24.0, 28.0)
SEEDS = (0, 1, 2)


def test_fig7_stability_across_seeds(ctx, jobs, benchmark):
    # one independent (target, seed) search each
    configs = [LightNASConfig.paper(target, space=ctx.space, seed=seed,
                                    epochs=60, steps_per_epoch=40)
               for target in TARGETS for seed in SEEDS]
    results = run_grid(configs, ctx.latency_predictor, jobs=jobs).values()

    rows = []
    series = {}
    for target in TARGETS:
        runs = [result for config, result in zip(configs, results)
                if config.target == target]
        finals = [ctx.latency_model.latency_ms(r.architecture) for r in runs]
        trajectories = [r.trajectory.predicted_metric for r in runs]
        mean_traj = np.mean(np.array(trajectories), axis=0)
        series[target] = mean_traj.tolist()
        rows.append([f"{target:.0f} ms",
                     f"{np.mean(finals):.2f} ± {np.std(finals):.2f}",
                     max(abs(f - target) for f in finals)])

        # every individual run must land near its target
        for final in finals:
            assert abs(final - target) < 1.8, (target, finals)

    lines = [render_table(
        ["target", "final latency (3 runs)", "worst |error| ms"], rows,
        title="Figure 7 — search stability (3 seeds per target)")]
    for target in TARGETS:
        lines.append("")
        lines.append(ascii_series(
            series[target], label=f"mean predicted latency → {target:.0f} ms"))
    emit("fig7_search_stability", "\n".join(lines))
    save_json("fig7_search_stability", {str(t): series[t] for t in TARGETS})

    # the averaged trajectory tail sits near the target for every constraint
    for target in TARGETS:
        tail = np.array(series[target][-10:])
        assert np.all(np.abs(tail - target) < 2.0)

    # timed kernel: a single constrained α/λ step
    config = LightNASConfig.paper(24.0, space=ctx.space, seed=9, epochs=2,
                                  steps_per_epoch=1)
    engine = LightNAS(config, predictor=ctx.latency_predictor)

    from repro import nn
    from repro.core.gumbel import GumbelSampler, TemperatureSchedule
    from repro.core.lambda_opt import LagrangeMultiplier

    alpha = nn.Parameter(ctx.space.uniform_alpha())
    alpha_opt = nn.Adam([alpha], lr=1e-3)
    lam = LagrangeMultiplier(lr=0.01)
    sampler = GumbelSampler(TemperatureSchedule(5.0, 0.1, 10),
                            np.random.default_rng(0))

    def step():
        _, gates = sampler.sample_gates(alpha, 5)
        valid = engine.oracle.differentiable_loss(gates)
        loss, _ = engine.objective.loss(valid, gates, lam.as_tensor())
        alpha_opt.zero_grad()
        loss.backward()
        alpha_opt.step()
        lam.ascend()

    benchmark(step)
