#!/usr/bin/env bash
# Tier-1 CI: the full test suite plus a smoke run of the perf benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

python -m pytest -x -q

# Tests write predictor caches only under a temporary REPRO_RESULTS_DIR:
# the tracked cache files must come out of the suite untouched.
cache_changes="$(git status --porcelain benchmarks/results/cache)"
if [ -n "$cache_changes" ]; then
    echo "error: the test suite changed benchmarks/results/cache:" >&2
    echo "$cache_changes" >&2
    exit 1
fi

# The bit-for-bit guarantees get a named run so a regression is unmissable
# in the CI log even when the full suite is green-but-skipping: resume
# parity, the cold- vs warm-cache `search --tiny` JSON, and the depthwise
# padding fold against the pad-then-convolve composition.
python -m pytest -x -q tests/core/test_resume_parity.py \
    tests/core/test_lightnas.py::TestTrajectoryValidLoss \
    tests/eval/test_tiny_predictor_cache.py \
    tests/nn/test_conv_fast_paths.py::TestPaddingFold \
    tests/runtime/

# Start-up contract: shipped commands load neither scipy nor the HTTP stack
# unless they use them.
python -m pytest -x -q tests/integration/test_startup.py

# Census: every definition in src/repro has a shipped caller, every import
# is read, and every config field and defaulted parameter is set by some
# shipped file (KEPT_OPTIONS names the exceptions and why).  A reintroduced
# test-only definition or single-valued knob fails here by name.
python -m pytest -x -q tests/integration/test_census.py

# Surrogate searches compile one α-step plan: compiled vs eager
# bit-identity (nn.plans(False), the eager reference no shipped command
# uses), the 1-compile/N−1-replay counters, the frozen predictor, resume
# and jobs=4 parity, and float64 searches, lone and in a 2 × 2 run_grid,
# under a float32 caller dtype.  Every shipped predictor kind compiles
# exactly one plan from the 14 lowered op kinds; any other op kind, or a
# replay with changed shapes, input names or dtype, raises.  The compiler
# reads a backward closure's pairs by operand position: a step whose
# sub/mul/div/matmul has a constant first operand replays bit-identical
# to eager, and a closure that drops a pair raises (TestOperandPosition);
# each closure returns None for a constant operand and the same bits for
# the other (test_constant_operands.py).  Supernet searches run their
# α-step outside any step program: their journal carries no plan_stats
# and trace-summary no step-plan row, and the α-epoch freezes the
# supernet, so no weight ends it holding a gradient, even when the step
# raises (TestSupernetSearch).
python -m pytest -x -q tests/core/test_surrogate_plan.py \
    tests/core/test_plan_op_set.py tests/nn/test_plan.py::TestInvalidation \
    tests/nn/test_plan.py::TestOperandPosition \
    tests/nn/test_constant_operands.py \
    tests/core/test_lightnas.py::TestSupernetSearch

# Every search grid runs through run_grid, which stacks each worker's
# share into one α-step per shared config: every slot of a run_grid batch (S = 1, 2, 4; latency,
# energy and MACs predictors) equals its sequential search bit for bit, a
# 4-slot grid's journals sum to one plan compile, a grid of 3 τ schedules
# × 2 seeds runs as three 2-slot batches
# (test_grid_runs_one_batch_per_shared_config), a killed grid resumes
# bit-for-bit with same-epoch slots sharing a batch again, a resumed grid
# with one corrupt checkpoint fails only that search, at --jobs 2
# each worker stacks its share of a 2 × 2 CLI grid, and bad --targets
# exit naming the flag.
python -m pytest -x -q tests/core/test_search_batch.py \
    tests/core/test_resume_parity.py::TestGridResumeParity \
    tests/eval/test_cli.py::TestSweep tests/eval/test_cli.py::TestStability

# The conv fast-path contract: gradient checks for every specialized kernel,
# the direct 1x1 matmul bit for bit (bytes and layout) against the einsum it
# replaced at every tiny-supernet geometry, the one-node batch norm bit for
# bit against the composite it replaced, its running statistics (shared with
# the forward's batch sums) against the separate pass they replaced, plus
# the golden-trajectory test pinning the float64 engine bit-identical.
python -m pytest -x -q tests/nn/test_conv_fast_paths.py \
    tests/nn/test_batch_norm.py tests/core/test_engine_bit_parity.py

# Tiny-N smoke of the hot-path benchmark: exercises the scalar/vectorized
# parity assertions and the BENCH_perf.json writer without the full N=10k
# timing run (speedup thresholds are only checked at full size).
python benchmarks/bench_perf_hotpaths.py --pop-n 200 --campaign-n 100 --predict-n 200

# nn-engine benchmark with acceptance thresholds (>= 3x depthwise fwd+bwd,
# faster supernet epoch); BENCH_nn.json is kept as a CI artifact.
python benchmarks/bench_nn_engine.py --steps 8 --repeat 2 --check

# Step-compiler benchmark with acceptance thresholds on the paper-config
# surrogate alpha-step, replay vs eager (the nn.plans(False) reference)
# vs a 4-slot stacked replay in alternating rounds (>= 2x replayed step,
# >= 10x tracked-allocation drop, <= 1/2 of a lone step per stacked
# slot); the JSON is uploaded as the bench-step CI artifact.
python benchmarks/bench_step_replay.py --check

# The run-fleet executor's contracts get a named run: the jobs=1 vs
# jobs=4 determinism parity suite and the fault-injection suite (a
# SIGKILLed task must succeed on its retry with exactly one task_retry
# event, and a Ctrl-C keeps the results already sent, cancels the rest,
# leaves no worker behind and still merges a readable journal).
python -m pytest -x -q tests/runtime/test_parallel.py::TestFleetParity \
    tests/runtime/test_parallel.py::TestFleetFaults

# Run-fleet benchmark at reduced epochs with a 2-worker floor: parity is
# asserted at every jobs level; the speedup gates, on the 32-search
# paper-space sweep, take the median of 5 alternating rounds (>= 1.3x at
# 2 jobs on >= 2-core hosts, >= 2x at 4 jobs on >= 4-core hosts;
# single-core hosts assert a bounded fork/merge overhead instead);
# BENCH_parallel.json is a CI artifact.
python benchmarks/bench_parallel.py --epochs 30 --steps 20 --check

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

# Serve reads are pinned as equal to a full sort: top-k and nearest
# selection (nearest over the layer-major genotype block) against a full
# stable sort for every k, the prefiltered Pareto sweep against the O(N²)
# definition (ties, ±0.0, ±inf, NaN), page-at-once describe_rows against a
# per-row reference, and a live /pareto against a recompute after appends,
# merges and a new device.  Index snapshots are copy-on-write views: a held
# snapshot must stay unchanged and read-only through a merge into its rows,
# a new device column and capacity growth.  Plus the gated-predictor
# batching tests (one forward per queued burst, a timed-out caller never
# forwarded), the operator-index validation and the 400s naming a
# malformed k, budgets or device.
python -m pytest -x -q tests/eval/test_pareto.py tests/archive/test_query.py \
    tests/archive/test_store.py::TestSnapshotIsolation \
    tests/archive/test_service.py::TestBatchingPredictor \
    tests/archive/test_service.py::TestRegressions \
    tests/archive/test_cli_archive.py::TestQueryCommand

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
