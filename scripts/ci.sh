#!/usr/bin/env bash
# Tier-1 CI: the full test suite plus a smoke run of the perf benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

python -m pytest -x -q

# The bit-for-bit guarantees get a named run so a regression is unmissable
# in the CI log even when the full suite is green-but-skipping.
python -m pytest -x -q tests/core/test_resume_parity.py \
    tests/core/test_lightnas.py::TestTrajectoryValidLoss \
    tests/runtime/

# Surrogate searches compile one α-step plan: plans on vs off bit-identity,
# the 1-compile/N-2-replay counters, the frozen predictor, and resume and
# jobs=4 parity with plans on.
python -m pytest -x -q tests/core/test_surrogate_plan.py

# The conv fast-path contract: gradient checks for every specialized kernel
# plus the golden-trajectory test pinning the float64 engine bit-identical.
python -m pytest -x -q tests/nn/test_conv_fast_paths.py \
    tests/core/test_engine_bit_parity.py

# Tiny-N smoke of the hot-path benchmark: exercises the scalar/vectorized
# parity assertions and the BENCH_perf.json writer without the full N=10k
# timing run (speedup thresholds are only checked at full size).
python benchmarks/bench_perf_hotpaths.py --pop-n 200 --campaign-n 100 --predict-n 200

# Tiny-N smoke of the warm-archive benchmark: asserts the warm evolution
# rerun is bit-identical with a non-zero cache hit rate and writes
# BENCH_archive.json.
python benchmarks/bench_archive.py --cycles 12 --population 8 --check

# nn-engine benchmark with acceptance thresholds (>= 3x depthwise fwd+bwd,
# faster supernet epoch); BENCH_nn.json is kept as a CI artifact.
python benchmarks/bench_nn_engine.py --steps 8 --repeat 2 --check

# Step-compiler benchmark with acceptance thresholds (>= 2x replayed
# w-step at the overhead-bound default batch, >= 10x alloc drop, and
# >= 1.5x *fused* replayed w-step at the BLAS-bound batch 16); the JSON
# carries the fused-vs-unfused batch_scaling breakdown per step family
# and is uploaded as the bench-step CI artifact.
python benchmarks/bench_step_replay.py --check

# The run-fleet executor's contracts get a named run: the jobs=1 vs
# jobs=4 determinism parity suite and the SIGKILL/timeout fault-injection
# suite (a retried task must succeed with exactly one task_retry event).
python -m pytest -x -q tests/runtime/test_parallel.py::TestFleetParity \
    tests/runtime/test_parallel.py::TestFleetFaults

# Run-fleet benchmark at reduced size with a 2-worker floor: parity is
# asserted at every jobs level; the >= 2x speedup gate at 4 jobs applies
# on >= 4-core hosts (core-aware — single-core hosts assert a bounded
# fork/merge overhead instead); BENCH_parallel.json is a CI artifact.
python benchmarks/bench_parallel.py --targets 4 --epochs 30 --steps 20 \
    --campaign 2000 --check

# The fleet subsystem's guarantees get a named run: strict-monotone
# transfer maps (Hypothesis properties), fleet-name resolution everywhere,
# and the unknown-device 400s on the archive service.
python -m pytest -x -q tests/fleet/ \
    tests/archive/test_service.py::TestHTTPEndpoints::test_unknown_device_is_400_naming_known

# Fleet benchmark at reduced size: 12 generated devices, 40-pair
# calibration vs 2000-pair per-device MLP campaigns (the 50x-less-data /
# tau-within-0.05 acceptance gates hold at this size too); BENCH_fleet.json
# is kept as a CI artifact.
python benchmarks/bench_fleet.py --calibration 40 --mlp-samples 2000 \
    --mlp-devices 2 --eval 300 --archive-size 500 --check

# Serving benchmark at reduced size: asserts segment-vs-log-replay query
# parity, zero failed requests under mixed concurrent load, and the QPS
# floor / p99 ceiling (the >= 5x boot-speedup gate only applies at the
# full 50k-record size); BENCH_serve.json is kept as a CI artifact.
python benchmarks/bench_serve.py --records 4000 --requests 20 --clients 4 \
    --check

# End-to-end telemetry smoke: a traced tiny search whose journal is kept as
# a CI artifact (see .github/workflows/ci.yml).
mkdir -p artifacts
python -m repro search --tiny --target 2.3 --seed 0 --epochs 3 \
    --checkpoint-dir artifacts/ckpts --checkpoint-every 1 \
    --trace artifacts/ci_run.jsonl > /dev/null
python -m repro trace-summary artifacts/ci_run.jsonl

# Serve smoke: boot the JSON API on an ephemeral port (the analytic macs
# predictor needs no campaign, so startup is instant), POST a predict
# batch, confirm /stats saw it, and shut the server down cleanly.
python - <<'PY'
import json, re, subprocess, sys, urllib.request

proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--tiny", "--metric", "macs",
     "--port", "0"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
try:
    line = proc.stdout.readline().strip()
    match = re.search(r"http://[\d.]+:\d+", line)
    assert match, f"serve did not announce its address: {line!r}"
    base = match.group(0)

    def post(endpoint, payload):
        request = urllib.request.Request(
            base + endpoint, json.dumps(payload).encode(),
            {"Content-Type": "application/json"})
        return json.loads(urllib.request.urlopen(request, timeout=30).read())

    batch = [[1, 1, 1, 1], [2, 0, 3, 1], [0, 0, 0, 0]]
    body = post("/predict", {"archs": batch})
    assert body["count"] == 3 and len(body["predictions"]) == 3, body
    stats = json.loads(
        urllib.request.urlopen(base + "/stats", timeout=30).read())
    assert stats["predict_requests"] >= 1, stats
    assert stats["predict_batches"] >= 1, stats
    post("/shutdown", {})
    assert proc.wait(timeout=30) == 0, "serve exited non-zero"
    print(f"serve smoke OK: {base} answered a {body['count']}-arch batch")
finally:
    if proc.poll() is None:
        proc.kill()
PY
