"""Self-test of the benchmark at reduced size (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that

* every metric named in ``BENCHMARK.json`` is emitted, with its unit, by a
  reduced-size run of every workload, traced and untraced;
* every end-to-end metric is really measured (not a placeholder 0) on
  every workload, and every per-layer metric on at least one workload;
* each correctness check trips on a deliberately wrong reference;
* generated inputs are identical for the same seed and differ for another;
* the benchmark refuses to run, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def test_inputs() -> None:
    a = wl.serve_inputs(7, 21, 7, small=True)
    b = wl.serve_inputs(7, 21, 7, small=True)
    c = wl.serve_inputs(8, 21, 7, small=True)
    expect(a.digest() == b.digest(), "serve inputs repeat for the same seed")
    expect(a.digest() != c.digest(), "serve inputs differ for another seed")
    expect(a.expected_records > len(a.archive_ops),
           "write batches add genotypes beyond the initial archive")
    for workload in ("paper-search", "stability-grid"):
        expect(wl.cli_argv(workload, 7) == wl.cli_argv(workload, 7)
               and wl.cli_argv(workload, 7) != wl.cli_argv(workload, 8),
               f"{workload} command line repeats per seed, differs across")


def test_search_check() -> None:
    reference = {"arch": [1, 2, 3], "predicted": 23.5, "lambda": 0.01}
    ran = [{"target": 24.0, "seed": 3, **reference}]
    expected = [{"target": 24.0, "seed": 3}]
    expect(checks.check_searches(ran, expected, [reference]) == [],
           "search check passes on its own reference")
    wrong = {
        "arch": dict(reference, arch=[1, 2, 4]),
        "predicted": dict(reference, predicted=float(
            np.nextafter(reference["predicted"], np.inf))),
        "lambda": dict(reference, **{"lambda": float(
            np.nextafter(reference["lambda"], -np.inf))}),
    }
    for field, bad in wrong.items():
        expect(len(checks.check_searches(ran, expected, [bad])) == 1,
               f"search check trips on a reference {field} one ulp/op off")
    expect(len(checks.check_searches([], expected, [reference])) == 1,
           "search check trips on a missing search")


def test_serve_check() -> None:
    clean = {"errors": [], "predict_served": [[1.5, 2.5]],
             "predict_direct": [[1.5, 2.5]],
             "records_seen": [[10, 12, 12], [11]], "final_records": 13}
    expect(checks.check_serve(clean, 13) == [],
           "serve check passes on consistent output")
    variants = {
        "a /predict row one ulp off": ("predict_direct",
                                       [[1.5, float(np.nextafter(2.5, 0))]]),
        "a 5xx response": ("errors", ["predict: HTTP 500: {}"]),
        "/stats records decreasing": ("records_seen", [[10, 9], [11]]),
    }
    for what, (key, value) in variants.items():
        bad = copy.deepcopy(clean)
        bad[key] = value
        expect(len(checks.check_serve(bad, 13)) == 1,
               f"serve check trips on {what}")
    expect(len(checks.check_serve(clean, 14)) == 1,
           "serve check trips on a wrong final record count")


def run_bench(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "2", "--trace",
         str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_emission(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[group]}
        computed = {}
        for workload in wl.WORKLOADS:
            proc = run_bench(root, workload, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and lines,
                   f"{workload} --trace {trace} runs ({proc.stderr[-300:]})")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} --trace {trace} checks pass")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == units,
                   f"{workload} --trace {trace} emits every {group} metric "
                   f"with its unit")
            unprinted = [name for name, unit in units.items()
                         if not any(line.startswith(f"{name}: ")
                                    and line.endswith(f" {unit}")
                                    for line in lines)]
            expect(not unprinted, f"{workload} --trace {trace} prints every "
                                  f"metric by name with its unit")
            # the result line reports every catalog name, measured or not;
            # the run record says which ones this workload really measured
            with open(run.record_path(root, workload, SEED, trace),
                      encoding="utf-8") as handle:
                computed[workload] = set(json.load(handle)["computed"])
        if trace == 0:
            for workload, names in computed.items():
                missing = sorted(set(units) - names)
                expect(not missing, f"{workload} measures every {group} "
                                    f"metric (never measured: {missing})")
        else:
            measured = set().union(*computed.values())
            missing = sorted(set(units) - measured)
            expect(not missing, f"every {group} metric is measured on at "
                                f"least one workload (never: {missing})")


def test_bare_directory(root: str) -> None:
    bare = os.path.join(root, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(bare, "paper-search", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run without the program, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    test_inputs()
    test_search_check()
    test_serve_check()
    test_bare_directory(root)
    test_emission(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
