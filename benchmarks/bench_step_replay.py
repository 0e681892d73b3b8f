"""Performance baseline for compiled step plans (BENCH_step.json).

Measures the trace-once/replay-many step compiler against the eager tape
engine on the one step a shipped command compiles: the paper-config
surrogate α-step of ``repro search --target 24`` (accuracy-oracle
capacity loss + fitted latency MLP + straight-through gates over the
21×K architecture parameters, then Adam on α and the λ ascent).

Both sides run the engine's own α-epoch loop
(``LightNAS._update_alpha_epoch``): one engine compiles its step (the
first step traces, every later step replays) and one runs every step
eagerly inside ``nn.plans(False)``, the engine's one eager switch.  The
benchmark reports steady-state per-step wall time (best of ``--repeat``
paired rounds) and the number of tracked
:class:`~repro.nn.tensor.Tensor` allocations per step.  A replayed plan
runs the whole step through the buffers its trace adopted, so its
allocation count must collapse to ~zero.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_step_replay.py

``--check`` asserts the acceptance thresholds: the replayed α-step is
>= 2x faster than eager steady state and tracked per-step allocations
drop by >= 10x.
"""

from __future__ import annotations

import argparse
import time

from repro import nn
from repro.core.gumbel import GumbelSampler, TemperatureSchedule
from repro.core.lambda_opt import LagrangeMultiplier
from repro.core.lightnas import LightNAS, LightNASConfig
from repro.experiments.shared import fit_latency_predictor
from repro.hardware.latency import LatencyModel
from repro.search_space.space import SearchSpace

TARGET_MS = 24.0
#: a mid-search epoch (τ well inside its annealing range)
EPOCH = 10


def _alpha_epoch_runner(predictor, steps: int, compiled: bool):
    """A zero-argument callable running one α-epoch of ``steps`` steps.

    Mirrors the state :meth:`LightNAS.search` sets up for its α/λ loop, so
    each call runs exactly the shipped step (and its optimizer updates);
    ``compiled=False`` runs it under ``nn.plans(False)``.
    """
    config = LightNASConfig.paper(TARGET_MS, seed=0, steps_per_epoch=steps)
    engine = LightNAS(config, predictor=predictor)
    alpha = nn.Parameter(engine.space.uniform_alpha(), name="alpha")
    alpha_opt = nn.Adam([alpha], lr=config.alpha_lr,
                        weight_decay=config.alpha_weight_decay)
    lam = LagrangeMultiplier(lr=config.lambda_lr,
                             initial=config.lambda_initial)
    sampler = GumbelSampler(TemperatureSchedule(
        config.tau_initial, config.tau_floor, config.epochs), engine.rng)

    def run_epoch():
        with nn.plans(compiled):
            engine._update_alpha_epoch(sampler, alpha, alpha_opt, lam, EPOCH)
    return run_epoch, engine.programs


def _measure_pair(eager_epoch, plan_epoch, steps: int, repeat: int):
    """Steady-state per-step seconds (best of ``repeat``) + allocations.

    One warm-up epoch per side runs first (on the plan side it holds the
    trace/compile step), so only steady-state steps are timed.  The eager
    and replayed epochs are measured in *alternating* rounds so slow drift
    in machine load lands on both sides of the speedup ratio instead of
    skewing whichever loop ran later; best-of-``repeat`` additionally
    guards against scheduler noise within a round.
    """
    eager_epoch()  # warm up
    plan_epoch()  # trace + compile, then replays
    rounds = max(1, repeat)
    best = [float("inf"), float("inf")]
    allocs = [0.0, 0.0]
    for _ in range(rounds):
        for idx, epoch in enumerate((eager_epoch, plan_epoch)):
            before = nn.tensor_allocations()
            start = time.perf_counter()
            epoch()
            best[idx] = min(best[idx], (time.perf_counter() - start) / steps)
            allocs[idx] += (nn.tensor_allocations() - before) / steps
    return best[0], allocs[0] / rounds, best[1], allocs[1] / rounds


def run(steps: int, check: bool, repeat: int = 10) -> dict:
    space = SearchSpace()
    predictor, _ = fit_latency_predictor(space, LatencyModel(space),
                                         num_samples=10_000)
    eager_epoch, _ = _alpha_epoch_runner(predictor, steps, compiled=False)
    plan_epoch, program = _alpha_epoch_runner(predictor, steps,
                                              compiled=True)
    eager_s, eager_allocs, plan_s, plan_allocs = _measure_pair(
        eager_epoch, plan_epoch, steps, repeat)
    stats = program.stats()
    results = {
        "config": {"steps": steps, "repeat": repeat, "target_ms": TARGET_MS,
                   "epoch": EPOCH, "space_layers": space.num_layers},
        "alpha_step": {
            "eager_step_ms": round(eager_s * 1e3, 3),
            "replay_step_ms": round(plan_s * 1e3, 3),
            "speedup": round(eager_s / plan_s, 2),
            "eager_allocs_per_step": round(eager_allocs, 1),
            "replay_allocs_per_step": round(plan_allocs, 1),
            "alloc_drop": round(eager_allocs / max(plan_allocs, 1e-9), 1)
            if plan_allocs else float(eager_allocs),
            "plans_compiled": stats["plans_compiled"],
            "replays": stats["replays"],
            "eager_steps": stats["eager_steps"],
            "arena_bytes": stats["arena_bytes"],
        },
    }
    if check:
        a = results["alpha_step"]
        assert a["plans_compiled"] == 1 and a["eager_steps"] == 0, (
            f"expected one compile and no eager step, got {stats}")
        assert a["speedup"] >= 2.0, (
            f"replayed alpha-step only {a['speedup']:.2f}x faster than "
            f"eager (acceptance floor is 2x)")
        eager_allocs = a["eager_allocs_per_step"]
        replay_allocs = max(a["replay_allocs_per_step"], 0.0)
        assert eager_allocs >= 10 * max(replay_allocs, 1e-9) or \
            replay_allocs == 0.0, (
            f"per-step tracked allocations only dropped from "
            f"{eager_allocs} to {replay_allocs} (need >= 10x)")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=100,
                        help="alpha-steps per measured round")
    parser.add_argument("--repeat", type=int, default=10,
                        help="wall-time is the best of this many paired "
                             "rounds")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance thresholds")
    args = parser.parse_args()

    results = run(args.steps, args.check, args.repeat)

    from repro.experiments.reporting import render_table, save_json

    info = results["alpha_step"]
    print(render_table(
        ["step", "eager (ms)", "replay (ms)", "speedup", "allocs eager",
         "allocs replay"],
        [["alpha_step", info["eager_step_ms"], info["replay_step_ms"],
          f"x{info['speedup']:.2f}", info["eager_allocs_per_step"],
          info["replay_allocs_per_step"]]],
        title=f"compiled step plans — paper-config surrogate alpha-step, "
              f"target {TARGET_MS:g} ms"))
    path = save_json("BENCH_step", results)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
