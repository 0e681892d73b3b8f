"""Performance baseline for compiled step plans (BENCH_step.json).

Measures the trace-once/replay-many step compiler against the eager tape
engine on the one step a shipped command compiles: the paper-config
surrogate α-step of ``repro search --target 24`` (accuracy-oracle
capacity loss + fitted latency MLP + straight-through gates over the
21×K architecture parameters, then Adam on α and the λ ascent).

Every side runs the engine's own α-epoch loop,
:meth:`SearchBatch.run_epoch`: a batch of one compiles its step (the first
step traces, every later step replays), a batch of one runs every step
eagerly inside ``nn.plans(False)`` (the eager reference, which no shipped
command uses), and a batch of ``--slots`` searches (the ``repro
stability``/``sweep`` grid at ``--jobs 1``) replays one stacked step for
all of them.  The benchmark
reports steady-state per-step wall time (best of ``--repeat`` paired
rounds, the three sides alternating), the stacked step's time per slot,
and the number of tracked :class:`~repro.nn.tensor.Tensor` allocations
per step.  A replayed plan runs the whole step through the buffers its
trace adopted, so its allocation count must collapse to ~zero.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_step_replay.py

``--check`` asserts the acceptance thresholds: the replayed α-step is
>= 2x faster than eager steady state, tracked per-step allocations drop
by >= 10x, and the stacked step costs each slot <= 1/2 of a lone
replayed step.
"""

from __future__ import annotations

import argparse
import time

from repro import nn
from repro.core.lightnas import LightNAS, LightNASConfig, SearchBatch
from repro.experiments.shared import fit_latency_predictor
from repro.hardware.latency import LatencyModel
from repro.search_space.space import SearchSpace

TARGET_MS = 24.0
#: a mid-search epoch (τ well inside its annealing range)
EPOCH = 10
#: stacked slots: the 2 targets × 2 seeds of the stability grid
SLOTS = 4


def _alpha_epoch_runner(predictor, steps: int, compiled: bool,
                        slots: int = 1):
    """A zero-argument callable running one α-epoch of ``steps`` steps.

    Builds the :class:`SearchBatch` :func:`run_grid` builds (slot ``i``
    searches target ``TARGET_MS + i`` with seed ``i``), so each call runs
    exactly the shipped step (and its optimizer updates) and moves every
    slot's state to the epoch's end; ``compiled=False`` runs it under
    ``nn.plans(False)``.
    """
    engines = [LightNAS(LightNASConfig.paper(TARGET_MS + i, seed=i,
                                             steps_per_epoch=steps),
                        predictor=predictor) for i in range(slots)]
    states = [engine._start(None) for engine in engines]
    for state in states:
        state.start_epoch = EPOCH
    batch = SearchBatch(engines, states)

    def run_epoch():
        epoch = batch.epoch
        with nn.plans(compiled):
            for row in range(slots):
                batch.run_epoch(row, epoch)
    return run_epoch, batch.program


def _measure(epochs, steps: int, repeat: int):
    """Steady-state per-step seconds (best of ``repeat``) + allocations.

    One warm-up epoch per side runs first (on a plan side it holds the
    trace/compile step), so only steady-state steps are timed.  The sides
    are measured in *alternating* rounds so slow drift in machine load
    lands on every side of a ratio instead of skewing whichever loop ran
    later; best-of-``repeat`` additionally guards against scheduler noise
    within a round.
    """
    for epoch in epochs:
        epoch()  # warm up (and trace + compile)
    best = [float("inf")] * len(epochs)
    allocs = [0.0] * len(epochs)
    rounds = max(1, repeat)
    for _ in range(rounds):
        for idx, epoch in enumerate(epochs):
            before = nn.tensor_allocations()
            start = time.perf_counter()
            epoch()
            best[idx] = min(best[idx], (time.perf_counter() - start) / steps)
            allocs[idx] += (nn.tensor_allocations() - before) / steps
    return best, [a / rounds for a in allocs]


def run(steps: int, check: bool, repeat: int = 10,
        slots: int = SLOTS) -> dict:
    space = SearchSpace()
    predictor, _ = fit_latency_predictor(space, LatencyModel(space),
                                         num_samples=10_000)
    eager_epoch, _ = _alpha_epoch_runner(predictor, steps, compiled=False)
    plan_epoch, program = _alpha_epoch_runner(predictor, steps,
                                              compiled=True)
    stacked_epoch, stacked = _alpha_epoch_runner(predictor, steps,
                                                 compiled=True, slots=slots)
    (eager_s, plan_s, stacked_s), (eager_allocs, plan_allocs, _) = _measure(
        [eager_epoch, plan_epoch, stacked_epoch], steps, repeat)
    stats, stacked_stats = program.stats(), stacked.stats()
    results = {
        "config": {"steps": steps, "repeat": repeat, "target_ms": TARGET_MS,
                   "epoch": EPOCH, "space_layers": space.num_layers,
                   "slots": slots},
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
        "stacked_alpha_step": {
            "slots": slots,
            "replay_step_ms": round(stacked_s * 1e3, 3),
            "replay_slot_step_ms": round(stacked_s / slots * 1e3, 3),
            "slot_speedup": round(plan_s * slots / stacked_s, 2),
            "plans_compiled": stacked_stats["plans_compiled"],
            "replays": stacked_stats["replays"],
            "arena_bytes": stacked_stats["arena_bytes"],
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
        b = results["stacked_alpha_step"]
        assert b["plans_compiled"] == 1, (
            f"expected one stacked compile, got {stacked_stats}")
        assert b["slot_speedup"] >= 2.0, (
            f"a {slots}-slot stacked step costs each slot only "
            f"{b['slot_speedup']:.2f}x less than a lone replayed step "
            f"(acceptance floor is 2x)")
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
    stacked = results["stacked_alpha_step"]
    print(render_table(
        ["step", "eager (ms)", "replay (ms)", "speedup", "allocs eager",
         "allocs replay"],
        [["alpha_step", info["eager_step_ms"], info["replay_step_ms"],
          f"x{info['speedup']:.2f}", info["eager_allocs_per_step"],
          info["replay_allocs_per_step"]],
         [f"alpha_step per slot, S={stacked['slots']}", "—",
          stacked["replay_slot_step_ms"],
          f"x{stacked['slot_speedup']:.2f} vs S=1", "—", "—"]],
        title=f"compiled step plans — paper-config surrogate alpha-step, "
              f"target {TARGET_MS:g} ms"))
    path = save_json("BENCH_step", results)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
