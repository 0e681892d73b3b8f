"""Run-fleet executor benchmark: speedup scaling at jobs ∈ {1, 2, 4, cores}.

The run-fleet executor's contract is twofold: fanning independent runs
across forked workers must be (1) **bit-identical** to the sequential run
and (2) actually faster on multi-core hosts.  This benchmark measures both
on the search grids the executor serves:

* **sweep** — one LightNAS search per latency target on the paper space,
  the space ``repro sweep``/``stability`` search by default (the gated
  workload, 32 targets);
* **stability** — a (targets × seeds) multi-seed campaign on the tiny
  space (reported, not gated).

Both run through ``run_grid``, which stacks each worker's share of the
grid (the whole grid at jobs=1) into one α-step.  A stacked step costs
little more for S slots than for one until the per-slot work dominates
the per-step dispatch: on a 2-CPU VM a 4-slot tiny-space grid took
0.13–0.19 s against 0.12–0.14 s for one slot, so no split of it can be
much faster than jobs=1, while a 16-slot paper-space grid took 0.82–0.86 s
against 0.59–0.60 s over 2 workers.  The gated sweep is therefore a
paper-space grid large enough for its shares to be real work; the small
tiny-space stability grid shows what ``--jobs`` costs when they are not.

Each workload runs every jobs level once per round, for ``ROUNDS`` rounds,
in an order that reverses every round, and each result is compared against
the first jobs=1 result — parity is asserted unconditionally, not just
under ``--check``.  A level's speedup is the median over rounds of the
jobs=1 wall divided by that level's wall in the same round, so one
scheduler stall cannot decide a gate; every round is recorded in the JSON.

Honest efficiency accounting: wall-clock speedup is bounded by physical
cores, not by the jobs count, so the speedup gates are **core-aware**:

1. parity: every workload's jobs=N results equal the jobs=1 results;
2. ≥ 2.0× median wall-clock speedup at 4 jobs on the sweep workload —
   enforced when the host has ≥ 4 cpus;
3. ≥ 1.3× median at 2 jobs — enforced when the host has ≥ 2 cpus;
4. on a single-core host the speedup gates are recorded as skipped and a
   bounded-overhead gate applies instead (median 4-job wall ≤ 1.6× the
   1-job wall of its round — forking, pickling and journal merging must
   stay cheap even when parallelism cannot pay).

"Cpus" are the ones this process may run on (its affinity mask), so a run
pinned with ``taskset -c 0`` is held to the single-core gate.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --epochs 30 \
        --steps 20 --check                  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.core.lightnas import LightNASConfig, run_grid
from repro.experiments.shared import fit_latency_predictor
from repro.hardware.latency import LatencyModel
from repro.runtime.parallel import usable_cpus
from repro.search_space.macro import MacroConfig
from repro.search_space.space import SearchSpace

#: Paper-space latency targets for the sweep workload (ms).
_SWEEP_TARGETS = tuple(18.0 + 0.5 * i for i in range(32))

#: Tiny-space latency targets for the stability workload (ms).
_STABILITY_TARGETS = (1.8, 2.0)

#: Timed rounds per workload; each round runs every jobs level once.
ROUNDS = 5


def _jobs_grid(cores: int) -> list:
    return sorted({1, 2, 4, max(1, cores)})


# ----------------------------------------------------------------------
# Workloads: search grids, each worker's share stacked into one α-step
# ----------------------------------------------------------------------

def grid_configs(space, targets, seeds, epochs, steps):
    return [LightNASConfig.paper(target, space=space, seed=seed,
                                 epochs=epochs, steps_per_epoch=steps)
            for target in targets for seed in seeds]


def timed_grid(configs, predictor, jobs: int):
    start = time.perf_counter()
    report = run_grid(configs, predictor, jobs=jobs)
    wall = time.perf_counter() - start
    values = [{"target": result.target,
               "arch": list(result.architecture.op_indices),
               "predicted": float(result.predicted_metric),
               "trajectory": list(result.trajectory.predicted_metric)}
              for result in report.values()]
    return values, wall, report.stats


def run_workload(name: str, configs, predictor, jobs_grid) -> dict:
    """Time one workload over ``ROUNDS`` rounds of the jobs grid, reversing
    the order every round; assert parity vs the first jobs=1 result."""
    reference = None
    walls = {jobs: [] for jobs in jobs_grid}
    utilization = {jobs: [] for jobs in jobs_grid}
    spawned = {}
    for round_index in range(ROUNDS):
        order = jobs_grid if round_index % 2 == 0 else jobs_grid[::-1]
        for jobs in order:
            values, wall, stats = timed_grid(configs, predictor, jobs)
            # canonicalise through JSON so tuples/lists compare
            # structurally; floats must round-trip bit-exactly
            canon = json.loads(json.dumps(values))
            if reference is None:
                reference = canon
            assert canon == reference, (
                f"{name}: jobs={jobs} results differ from jobs=1 — "
                f"determinism contract broken")
            walls[jobs].append(wall)
            utilization[jobs].append(stats["utilization"])
            spawned[jobs] = stats["workers_spawned"]
    levels = {}
    for jobs in jobs_grid:
        # same-round ratios: both walls saw the same host conditions
        ratios = [base / wall for base, wall in zip(walls[1], walls[jobs])]
        speedup = statistics.median(ratios)
        levels[str(jobs)] = {
            "wall_s": round(statistics.median(walls[jobs]), 4),
            "speedup": round(speedup, 4),
            "efficiency": round(speedup / jobs, 4),
            "utilization": round(statistics.median(utilization[jobs]), 4),
            "workers_spawned": spawned[jobs],
            "rounds": [{"wall_s": round(wall, 4),
                        "speedup": round(ratio, 4)}
                       for wall, ratio in zip(walls[jobs], ratios)],
        }
        print(f"  {name}: jobs={jobs} median wall="
              f"{levels[str(jobs)]['wall_s']:.2f}s median speedup="
              f"{speedup:.2f}x (rounds "
              + ", ".join(f"{r:.2f}" for r in ratios) + ")")
    return {"tasks": len(reference), "parity": True, "rounds": ROUNDS,
            "jobs": levels}


def run(args) -> dict:
    cores = usable_cpus()
    jobs_grid = _jobs_grid(cores)
    paper = SearchSpace()
    paper_predictor, _ = fit_latency_predictor(paper, LatencyModel(paper))
    tiny = SearchSpace(MacroConfig.tiny())
    tiny_predictor, _ = fit_latency_predictor(tiny, LatencyModel(tiny),
                                              num_samples=1500)
    targets = _SWEEP_TARGETS[:args.targets]
    seeds = tuple(range(args.seeds))

    print(f"host: {cores} cpu core(s); jobs grid {jobs_grid}")
    workloads = {}

    # --- sweep (the gated workload) ---------------------------------
    workloads["sweep"] = run_workload(
        "sweep", grid_configs(paper, targets, (0,), args.epochs, args.steps),
        paper_predictor, jobs_grid)

    # --- stability ---------------------------------------------------
    workloads["stability"] = run_workload(
        "stability",
        grid_configs(tiny, _STABILITY_TARGETS, seeds,
                     max(10, args.epochs // 2), max(10, args.steps // 2)),
        tiny_predictor, jobs_grid)

    # --- core-aware gates -------------------------------------------
    sweep_levels = workloads["sweep"]["jobs"]
    speedup_4j = sweep_levels.get("4", {}).get("speedup", 0.0)
    speedup_2j = sweep_levels.get("2", {}).get("speedup", 0.0)
    gates = {
        "parity": {"required": True, "passed": True, "enforced": True},
        "speedup_4_jobs": {
            "required": 2.0, "measured": speedup_4j,
            "enforced": cores >= 4,
            "reason": None if cores >= 4 else
            f"host has {cores} core(s) — wall-clock speedup at 4 jobs is "
            f"physically bounded by the core count, gate skipped",
        },
        "speedup_2_jobs": {
            "required": 1.3, "measured": speedup_2j,
            "enforced": cores >= 2,
            "reason": None if cores >= 2 else
            f"host has {cores} core(s), gate skipped",
        },
        "single_core_overhead": {
            # jobs=4 wall may not exceed 1.6x the jobs=1 wall of its round
            # (median over rounds): the executor's
            # fork/pickle/merge overhead must stay small even when
            # parallelism cannot pay
            "required": 1.6,
            "measured": round(statistics.median(
                four["wall_s"] / one["wall_s"]
                for one, four in zip(sweep_levels["1"]["rounds"],
                                     sweep_levels["4"]["rounds"])), 4)
            if "4" in sweep_levels else 0.0,
            "enforced": cores < 2,
        },
    }

    if args.check:
        if gates["speedup_4_jobs"]["enforced"]:
            assert speedup_4j >= 2.0, (
                f"median sweep speedup at 4 jobs is {speedup_4j:.2f}x on a "
                f"{cores}-core host, need >= 2.0x")
        if gates["speedup_2_jobs"]["enforced"]:
            assert speedup_2j >= 1.3, (
                f"median sweep speedup at 2 jobs is {speedup_2j:.2f}x on a "
                f"{cores}-core host, need >= 1.3x")
        if gates["single_core_overhead"]["enforced"]:
            overhead = gates["single_core_overhead"]["measured"]
            assert 0 < overhead <= 1.6, (
                f"single-core fleet overhead {overhead:.2f}x > 1.6x — "
                f"the executor costs too much when it cannot parallelise")

    return {
        "cpu_count": cores,
        "jobs_grid": jobs_grid,
        "config": {"targets": len(targets), "epochs": args.epochs,
                   "steps": args.steps, "seeds": len(seeds),
                   "rounds": ROUNDS},
        "workloads": workloads,
        "gates": gates,
        "checks_passed": bool(args.check),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", type=int, default=32,
                        help="sweep targets (max 32, default 32)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="stability seeds per target (default 2)")
    parser.add_argument("--epochs", type=int, default=60,
                        help="search epochs per run (default 60)")
    parser.add_argument("--steps", type=int, default=40,
                        help="steps per epoch (default 40)")
    parser.add_argument("--check", action="store_true",
                        help="assert the core-aware speedup/overhead gates")
    args = parser.parse_args()
    args.targets = min(args.targets, len(_SWEEP_TARGETS))

    results = run(args)

    from repro.experiments.reporting import render_table, save_json

    rows = []
    for name, workload in results["workloads"].items():
        for jobs, info in workload["jobs"].items():
            rows.append([name, jobs, info["wall_s"], info["speedup"],
                         info["efficiency"], info["utilization"]])
    print(render_table(
        ["workload", "jobs", "median wall s", "median speedup",
         "efficiency", "utilization"],
        rows,
        title=f"run-fleet scaling — {results['cpu_count']} core(s), "
              f"{ROUNDS} rounds, parity asserted at every level"))
    for gate, info in results["gates"].items():
        state = ("enforced" if info.get("enforced") else "skipped")
        print(f"gate {gate}: {state}"
              + (f" — {info['reason']}" if info.get("reason") else ""))
    path = save_json("BENCH_parallel", results)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
