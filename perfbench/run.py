"""End-to-end search and serve benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload paper-search --seed 1 --seconds 30 --trace 0

One run measures one workload for about ``--seconds`` seconds as a series
of fresh processes (``child.py``): full processes (setup, work, teardown),
topped up with setup-only processes when too few full processes fit, so
that ``setup_s`` is always a median of several set-ups.  Every output is
checked (``checks.py``).  The run prints each metric by name with its
unit and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(medians over untraced processes, with times scaled to a reference host
speed by ``sampler.py``; README.md, "Host speed").  ``--trace 1``
alternates untraced and traced processes and reports the per-layer
metrics, the tracing overhead and the attribution findings.  ``--small`` shrinks every workload for the
self-test.  The full record of a run (environment, samples, metrics,
findings) is written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import checks
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SETUP_SAMPLES = 5
#: no process starts unless the run can still end inside this budget
RUN_LIMIT_S = 165.0
#: ROADMAP target: under 5% of a process's wall time outside any phase
UNATTRIBUTED_LIMIT_PCT = 5.0
SEARCH_PHASES = ("update_alpha", "train_weights", "warmup_eval", "derive")
SETUP_LAYERS = ("cost_tables", "predictor", "engine", "archive_boot")
STEP_LABELS = ("sample_gates", "valid_loss", "train_loss", "objective",
               "backward", "optimizer", "lambda", "batch")
ENDPOINTS = ("predict", "query", "pareto", "nearest")
QUERY_FNS = ("top_k", "pareto_rows", "hamming_neighbors", "describe_rows")
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
#: host-speed scaling, README.md "Host speed": CPU time spent while the
#: sampler's unit took S seconds on average is multiplied by
#: REFERENCE_UNIT_S / S, the unit's typical time on the 2-core host the
#: bounds were set on
REFERENCE_UNIT_S = 0.0004


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def metric_name(text: str) -> str:
    """Map an op kind such as ``fused:a+b+c`` into the metric charset."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


def load_catalog(root: str):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def record_path(root: str, workload: str, seed: int, trace: int) -> str:
    """Where a run keeps its full record (environment, samples, metrics)."""
    return os.path.join(root, ".perfbench_work", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")


def environment(child_env: dict) -> dict:
    """The host and libraries, with the BLAS thread count the children get."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(child_env["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def tail(values):
    """(value, percentile) of the highest ladder percentile that still has
    at least ten samples beyond it (nearest rank); the median otherwise."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0, 0.0
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return xs[max(0, math.ceil(pct / 100.0 * n) - 1)], pct
    return statistics.median(xs), 50.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

class Runner:
    """Spawns the workload's processes and keeps what they report."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{args.workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.samples = []
        self.serve = None
        self.sampler = None
        self.host = []      # (monotonic time, sampler unit seconds)

    def prepare(self) -> None:
        """Pin to one CPU, generate the inputs, warm the caches."""
        # every process of the run, and the sampler, share this CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if self.args.workload == "serve-mixed":
            sys.path.insert(0, os.path.join(self.root, "src"))
            from repro.hardware.device import resolve_device
            from repro.search_space.space import SearchSpace

            space = SearchSpace()
            self.serve = wl.serve_inputs(self.args.seed, space.num_layers,
                                         space.num_operators,
                                         small=self.args.small)
            wl.build_archive(os.path.join(self.work, "archive", "a.jsonl"),
                             self.serve, space,
                             resolve_device(wl.DEVICE).name)
            with open(os.path.join(self.work, "scripts.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(self.serve.scripts, handle)
        # compiled bytecode and the page cache are warm for users too
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       env=self.env, cwd=self.root, check=True,
                       timeout=120)

    def spawn(self, mode: str, traced: bool) -> dict:
        index = len(self.samples)
        cdir = os.path.join(self.work, f"p{index}")
        os.makedirs(cdir)
        spec = {"workload": self.args.workload, "seed": self.args.seed,
                "mode": mode, "traced": traced, "small": self.args.small,
                "work": cdir}
        if self.serve is not None:
            archive_dir = os.path.join(self.work, "archive")
            if mode == "full":   # the full process writes to its own copy
                archive_dir = shutil.copytree(archive_dir,
                                              os.path.join(cdir, "archive"))
            spec["archive"] = os.path.join(archive_dir, "a.jsonl")
            spec["scripts"] = os.path.join(self.work, "scripts.json")
        spec_path = os.path.join(cdir, "spec.json")
        out_path = os.path.join(cdir, "out.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        sample = {"mode": mode, "traced": traced, "ok": False, "out": None,
                  "error": ""}
        budget = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(os.path.join(cdir, "stderr.txt"), "w+b") as err:
            sample["spawn"] = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"),
                     "--spec", spec_path, "--out", out_path],
                    env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                    stderr=err, timeout=budget)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            sample["exit"] = time.monotonic()
            if code == 0 and os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as handle:
                    sample["out"] = json.load(handle)
                sample["ok"] = sample["out"]["work_start"] is not None
            if not sample["ok"]:
                err.seek(0)
                lines = err.read().decode("utf-8", "replace").splitlines()
                sample["error"] = (f"{mode} process exited with {code}: "
                                   + " | ".join(lines[-3:]))
        self.samples.append(sample)
        return sample

    def collect(self) -> None:
        """Spawn processes until ``--seconds`` is used up."""
        host_log = os.path.join(self.work, "host.txt")
        self.sampler = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sampler.py"),
             "--out", host_log], stdout=subprocess.DEVNULL)
        try:
            self._collect()
        finally:
            self.stop_sampler()
        with open(host_log, encoding="utf-8") as handle:
            self.host = [tuple(map(float, line.split()))
                         for line in handle if line.endswith("\n")]
        if not self.host:
            die("the host-speed sampler recorded no unit", code=1)

    def stop_sampler(self) -> None:
        if self.sampler is not None:
            self.sampler.terminate()
            self.sampler.wait()
            self.sampler = None

    def host_scale(self, start: float, end: float):
        """Factor bringing a time measured in [start, end] to the reference
        host speed; None when no sampler unit ran inside the interval."""
        units = [took for at, took in self.host if start <= at <= end]
        if not units:
            return None
        return REFERENCE_UNIT_S / statistics.mean(units)

    def _collect(self) -> None:
        self.started = time.monotonic()
        deadline = self.started + self.args.seconds
        cost = {}

        def go(mode, traced):
            start = time.monotonic()
            sample = self.spawn(mode, traced)
            cost[mode, traced] = time.monotonic() - start
            if sample["ok"]:
                # until a setup-only process has run, guess its cost from
                # the set-up part of this one
                cost.setdefault(("setup", False),
                                timings(sample)["setup_s"] + 0.5)
            return sample["ok"]

        def fits(*kinds, limit=deadline):
            need = sum(cost.get(kind, 0.0) for kind in kinds)
            now = time.monotonic()
            return (now + need <= limit
                    and now - self.started + need <= RUN_LIMIT_S)

        if self.args.trace:
            if not (go("full", False) and go("full", True)):
                return
            while fits(("full", False), ("full", True)):
                if not (go("full", False) and go("full", True)):
                    return
            return
        # full processes for as long as the set-up-only processes still
        # needed for MIN_SETUP_SAMPLES fit behind the next one
        while True:
            if not go("full", False):
                return
            missing = max(0, MIN_SETUP_SAMPLES - self.setup_count() - 1)
            if not fits(("full", False), *[("setup", False)] * missing):
                break
        # top up the set-up samples, even past the deadline on a slow host
        while self.setup_count() < MIN_SETUP_SAMPLES and \
                fits(("setup", False), limit=math.inf):
            if not go("setup", False):
                return

    def setup_count(self) -> int:
        return sum(1 for s in self.samples if s["ok"] and not s["traced"])

    def close(self) -> None:
        self.stop_sampler()
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def load_references(args) -> list:
    expected = wl.expected_searches(args.workload, args.seed)
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)
    return [table.get(wl.reference_key(args.workload, e["target"], e["seed"]))
            for e in expected]


def check_all(runner: Runner, args):
    """(attempted, failure messages) over every process of the run."""
    attempted, failures = 0, []
    full = [s for s in runner.samples if s["mode"] == "full"]
    for sample in runner.samples:
        if sample["mode"] == "setup":
            attempted += 1
            if not sample["ok"]:
                failures.append(sample["error"])
    if args.workload == "serve-mixed":
        for sample in full:
            ops = sum(len(s) for s in runner.serve.scripts) + 1
            attempted += ops
            if not sample["ok"]:
                failures += [sample["error"]] * ops
            else:
                failures += checks.check_serve(
                    sample["out"], runner.serve.expected_records)
        return attempted, failures

    expected = wl.expected_searches(args.workload, args.seed)
    good = [s for s in full if s["ok"] and not s["traced"]]

    def results_of(sample):
        ran = {(r["target"], r["seed"]): r
               for r in sample["out"]["searches"]}
        return [ran.get((e["target"], e["seed"])) for e in expected]

    if args.small:   # no stored reference: the first process is the reference
        references = results_of(good[0]) if good else [None] * len(expected)
    else:
        references = load_references(args)
    for sample in full:
        attempted += len(expected)
        if not sample["ok"]:
            failures += [sample["error"]] * len(expected)
            continue
        found = checks.check_searches(sample["out"]["searches"], expected,
                                      references)
        failures += [("traced: " if sample["traced"] else "") + f
                     for f in found]
    if args.trace and good:
        # the traced processes must reproduce the untraced results exactly
        baseline = results_of(good[0])
        for sample in full:
            if sample["ok"] and sample["traced"]:
                attempted += len(expected)
                failures += ["traced vs untraced: " + f
                             for f in checks.check_searches(
                                 sample["out"]["searches"], expected,
                                 baseline)]
    return attempted, failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def timings(sample: dict, runner=None) -> dict:
    """A process's wall times and peak memory.

    With ``runner``, each time is brought to the reference host speed over
    its own interval: the process's CPU time in the interval is scaled,
    the rest (waiting on timers, sockets or other threads) is not.
    """
    out = sample["out"]
    # interval: (wall start, wall end, process CPU time inside it)
    spans = {"setup_s": (sample["spawn"], out["work_start"],
                         out["cpu_start"])}
    if sample["mode"] == "full":
        spans.update(
            total_s=(sample["spawn"], sample["exit"], out["cpu_exit"]),
            work_s=(out["work_start"], out["work_end"],
                    out["cpu_end"] - out["cpu_start"]),
            teardown_s=(out["work_end"], sample["exit"],
                        out["cpu_exit"] - out["cpu_end"]))
    t = {key: end - start for key, (start, end, _) in spans.items()}
    if runner is not None:
        whole = runner.host_scale(sample["spawn"], sample["exit"]) or 1.0
        for key, (start, end, cpu) in spans.items():
            scale = runner.host_scale(start, end)
            cpu = min(cpu, t[key])
            t[key] += cpu * ((whole if scale is None else scale) - 1.0)
    if sample["mode"] == "full":
        t["peak_rss_mb"] = out["peak_rss_mb"]
    return t


def medians(rows) -> dict:
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row[k] for row in rows if k in row)
            for k in sorted(keys)}


def end_to_end(runner: Runner) -> dict:
    untraced = [s for s in runner.samples if s["ok"] and not s["traced"]]
    return medians([timings(s, runner) for s in untraced])


def read_journal(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def search_layers(sample: dict, kinds: set) -> dict:
    """Per-layer metrics of one traced search process.

    Only what the process really ran is set: a phase that never opened, a
    step component never called or plan counters never journalled stay
    unset (and read 0 in the result, but not in its ``computed`` list).
    """
    out = sample["out"]
    events = read_journal(out["journal"])
    runs = [e for e in events if e["event"] == "run_end"
            and e.get("engine") != "runfleet"]
    m = {"journal.events": len(events)}
    phases = defaultdict(float)
    wall = 0.0
    for run in runs:
        wall += run["wall_time_s"]
        for name, row in run.get("phase_timers", {}).items():
            phases[name] += row["total_s"]
    for name in SEARCH_PHASES:
        if name in phases:
            m[f"phase.{name}_s"] = phases[name]
    m["phase.unattributed_s"] = wall - sum(phases.values())
    searches = out["searches"]
    alpha_steps = sum(s["alpha_steps"] for s in searches)
    w_steps = sum(s["w_steps"] for s in searches)
    if alpha_steps and "update_alpha" in phases:
        m["alpha_step_ms"] = 1e3 * phases["update_alpha"] / alpha_steps
    if w_steps and "train_weights" in phases:
        m["w_step_ms"] = 1e3 * phases["train_weights"] / w_steps

    plans = defaultdict(float)
    for run in runs:
        for key, value in run.get("plan_stats", {}).items():
            plans[key] += value
    if plans:
        m["plan.compiled"] = plans["plans_compiled"]
        m["plan.replays"] = plans["replays"]
        m["plan.eager"] = plans["eager_steps"]
        stepped = plans["replays"] + plans["eager_steps"]
        if stepped:
            m["plan.replay_share"] = plans["replays"] / stepped
        m["plan.arena_mb"] = plans["arena_bytes"] / 1e6
        m["plan.kernels_fused"] = plans["kernels_fused"]
        m["plan.fusion_rejected"] = plans["fusion_rejected"]
        m["epoch_plan.compiled"] = plans["epoch_plans_compiled"]
        m["epoch_plan.hits"] = plans["epoch_plan_hits"]

    op_s, op_calls = defaultdict(float), defaultdict(int)
    for event in events:
        for kind, row in event.get("op_profile", {}).items():
            name = metric_name(kind)
            if f"op.{name}.self_s" not in kinds:
                name = "other"
            op_s[name] += row["total_ms"] / 1e3
            op_calls[name] += row["calls"]
    for name in op_s:
        m[f"op.{name}.self_s"] = op_s[name]
        m[f"op.{name}.calls"] = op_calls[name]
    m["op.total_s"] = sum(op_s.values())
    m["op.outside_s"] = sum(phases[p] for p in SEARCH_PHASES) \
        - m["op.total_s"]

    spans = out["work_spans"]
    for label in STEP_LABELS:
        if f"step.{label}" in spans["calls"]:
            m[f"step.{label}_s"] = spans["total"][f"step.{label}"]
            m[f"step.{label}.calls"] = spans["calls"][f"step.{label}"]

    stats = out.get("fleet_stats")
    if stats:
        m["fleet.tasks"] = stats["tasks"]
        m["fleet.utilization"] = stats["utilization"]
        m["fleet.retries"] = stats["retries"]
        m["fleet.merge_s"] = (out["work_end"] - out["work_start"]
                              - stats["task_wall_s"])
    m["work.attributed_s"] = sum(phases.values())
    return m


def serve_layers(sample: dict) -> dict:
    """Per-layer metrics of one traced serve process (only spans that ran)."""
    out = sample["out"]
    spans = out["work_spans"]
    total, calls, items = spans["total"], spans["calls"], spans["items"]
    m = {}

    def mean_ms(label):
        return 1e3 * total[label] / calls[label]

    def set_mean(name, label):
        if calls.get(label):
            m[name] = mean_ms(label)

    for ep in ENDPOINTS:
        set_mean(f"handler.{ep}.ms", f"handler.{ep}")
    lat = out["latencies_ms"]
    http_ms = [v for kind, vs in lat.items() if kind != "write" for v in vs]
    handler_s = sum(v for k, v in total.items() if k.startswith("handler."))
    if http_ms:
        m["http.overhead_ms"] = (sum(http_ms) - 1e3 * handler_s) \
            / len(http_ms)
    if calls.get("predictor.population"):
        m["predictor.population.calls"] = calls["predictor.population"]
        m["predictor.population.s"] = total["predictor.population"]
        m["predictor.population.archs"] = items["predictor.population"]
    b = out["batcher"]
    m["batcher.requests"] = b["predict_requests"]
    m["batcher.batches"] = b["predict_batches"]
    if b["predict_batches"]:
        m["batcher.archs_per_batch"] = (b["predict_archs"]
                                        / b["predict_batches"])
    m["batcher.largest_batch"] = b["largest_batch"]
    m["batcher.cancelled"] = b["predict_cancelled"]
    if calls.get("batcher.predict") and calls.get("predictor.population"):
        m["batcher.wait_ms"] = (mean_ms("batcher.predict")
                                - mean_ms("predictor.population"))
    for fn in QUERY_FNS:
        set_mean(f"query.{fn}_ms", f"query.{fn}")
    set_mean("store.index_ms", "store.index")
    set_mean("store.add_population_ms", "store.add_population")
    m["store.records"] = out["final_records"]
    m["work.attributed_s"] = out["work_end"] - out["work_start"]
    return m


def serve_latencies(samples) -> dict:
    """Client-side latency figures pooled over untraced processes."""
    pooled = defaultdict(list)
    operations, work_s = 0, 0.0
    for sample in samples:
        out = sample["out"]
        for kind, values in out["latencies_ms"].items():
            group = "read" if kind in wl.READ_KINDS else kind
            pooled[group] += values
        operations += out["operations"]
        work_s += out["work_end"] - out["work_start"]
    m = {}
    for group in ("predict", "read"):
        values = pooled[group]
        m[f"serve.{group}_samples"] = len(values)
        if values:
            value, pct = tail(values)
            m[f"serve.{group}_p50_ms"] = statistics.median(values)
            m[f"serve.{group}_tail_ms"] = value
            m[f"serve.{group}_tail_pct"] = pct
    if pooled["write"]:
        m["serve.write_p50_ms"] = statistics.median(pooled["write"])
    if work_s:
        m["serve.ops_per_s"] = operations / work_s
    return m


def per_layer(runner: Runner, args, kinds: set) -> dict:
    traced = [s for s in runner.samples if s["ok"] and s["traced"]]
    untraced = [s for s in runner.samples if s["ok"] and not s["traced"]]
    rows = []
    for sample in traced:
        out = sample["out"]
        setup = out["setup_spans"]["self"]
        m = {"setup.import_s": out["imported"] - sample["spawn"]}
        for layer in SETUP_LAYERS:
            if f"setup.{layer}" in setup:
                m[f"setup.{layer}_s"] = setup[f"setup.{layer}"]
        if args.workload == "serve-mixed":
            m.update(serve_layers(sample))
        else:
            m.update(search_layers(sample, kinds))
        total = sample["exit"] - sample["spawn"]
        attributed = m.pop("work.attributed_s") + sum(
            m.get(f"setup.{layer}_s", 0.0)
            for layer in ("import",) + SETUP_LAYERS)
        m["attr.unattributed_s"] = total - attributed
        m["attr.unattributed_pct"] = 100.0 * m["attr.unattributed_s"] / total
        m["traced_total_s"] = timings(sample, runner)["total_s"]
        rows.append(m)
    m = medians(rows)
    plain = medians([timings(s) for s in untraced])
    for part in ("setup", "work", "teardown"):
        m[f"attr.{part}_s"] = plain[f"{part}_s"]
    # both sides at the reference host speed
    baseline = medians([timings(s, runner) for s in untraced])["total_s"]
    m["trace_overhead_pct"] = (100.0 * (m.pop("traced_total_s") - baseline)
                               / baseline)
    m["host.unit_ms"] = 1e3 * statistics.median(
        took for _, took in runner.host)
    if args.workload == "serve-mixed":
        m.update(serve_latencies(untraced))
    return m


# ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size workloads (self-test only)")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        die("run from the repository root: src/repro is missing here")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        die("BENCHMARK.json is missing from the working directory")
    e2e_units, layer_units = load_catalog(root)

    runner = Runner(root, args)
    try:
        runner.prepare()
        runner.collect()
        attempted, failures = check_all(runner, args)
        usable = [s for s in runner.samples if s["ok"] and not s["traced"]
                  and s["mode"] == "full"]
        if not usable or (args.trace and not any(
                s["ok"] and s["traced"] for s in runner.samples)):
            for message in failures[:10]:
                print(f"FAILED: {message}", file=sys.stderr)
            die("no process completed; nothing to report", code=1)
        if args.trace:
            units = layer_units
            values = per_layer(runner, args, set(layer_units))
            values["failed_share"] = len(failures) / attempted
        else:
            units = e2e_units
            values = end_to_end(runner)
        unknown = sorted(set(values) - set(units)) if args.trace else []
        if unknown:
            die(f"metrics missing from BENCHMARK.json: {unknown}")
        # a metric of a layer this workload does not run reads 0; the run
        # record lists the names that were really measured
        metrics = {name: {"value": float(values.get(name, 0.0)),
                          "unit": unit} for name, unit in units.items()}
        computed = sorted(set(values) & set(units))
        env = environment(runner.env)
        raw = medians([timings(s) for s in runner.samples
                       if s["ok"] and not s["traced"]])
        findings = []
        if args.trace:
            pct = values["attr.unattributed_pct"]
            if pct > UNATTRIBUTED_LIMIT_PCT:
                findings.append(
                    f"{args.workload}: {pct:.1f}% of the traced process's "
                    f"wall time is outside every setup layer and search "
                    f"phase (target < {UNATTRIBUTED_LIMIT_PCT:g}%)")
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": env, "metrics": metrics, "computed": computed,
            "findings": findings,
            "failures": failures, "raw_wall_medians": raw,
            "host_unit_s": [took for _, took in runner.host],
            "samples": [{"mode": s["mode"], "traced": s["traced"],
                         "ok": s["ok"], "error": s["error"],
                         **({"raw": timings(s),
                             "scaled": timings(s, runner)}
                            if s["ok"] else {})}
                        for s in runner.samples],
        }
        path = record_path(root, args.workload, args.seed, args.trace)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    finally:
        runner.close()

    print(f"workload {args.workload} seed {args.seed}: "
          f"{sum(1 for s in runner.samples if s['mode'] == 'full')} full and "
          f"{sum(1 for s in runner.samples if s['mode'] == 'setup')} "
          f"setup-only processes")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("raw wall-clock medians: " + ", ".join(
        f"{k}={v:.4g}" for k, v in raw.items()))
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for finding in findings:
        print(f"finding: {finding}")
    for message in failures[:10]:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
