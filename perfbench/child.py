"""One measured process of a workload.

``run.py`` spawns this script once per sample.  It runs the workload the
way its ``repro`` command does, records a few monotonic timestamps at the
boundaries of setup and work, checks nothing itself, and writes what it
saw to a JSON file for the parent to aggregate and check.

Modes:

* ``full``  — setup, the workload's work, teardown;
* ``setup`` — setup only: stops at the first search step or, for
  ``serve-mixed``, once the server accepts requests.

With ``--traced`` the child also wraps the public functions of each layer
in timing spans (this file's :class:`Tracer`), turns on the program's own
counters (``--profile-ops`` and a ``--trace`` journal for the search
commands) and reports them.  Untraced children carry only the two
boundary hooks (one call each per search) that mark where setup ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import http.client
import io
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

import workloads as wl


class SetupDone(BaseException):
    """Raised at the first search step of a setup-only child.

    A ``BaseException`` so that no ``except Exception`` in the program
    swallows it on the way out.
    """


# ----------------------------------------------------------------------
# Spans around public functions
# ----------------------------------------------------------------------

class Tracer:
    """Inclusive and self time plus call counts per span label.

    Spans nest per thread; a span's self time excludes its child spans.
    ``count`` callbacks add a per-call item count (e.g. architectures per
    ``predict_population`` call) under ``<label>.items``.  ``work_only``
    spans record nothing outside the work window, so that, say, the
    predictor fit's own ``Tensor.backward`` calls stay inside setup.
    """

    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.phase = None
        self.in_work = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        with self._lock:
            return {"total": dict(self.total), "self": dict(self.self_s),
                    "calls": dict(self.calls), "items": dict(self.items)}

    def wrap(self, owner, attr: str, label, count=None,
             work_only: bool = False) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if work_only and not tracer.in_work:
                return original(*args, **kwargs)
            name = label() if callable(label) else label
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.total[name] += elapsed
                    tracer.self_s[name] += elapsed - inner
                    tracer.calls[name] += 1
                    if count is not None:
                        tracer.items[name] += count(args, kwargs)

        setattr(owner, attr, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def track_phases(self, timers_cls) -> None:
        """Follow ``PhaseTimers.phase`` so spans can depend on the phase."""
        original = timers_cls.phase
        tracer = self

        @contextlib.contextmanager
        def phase(timers, name):
            previous, tracer.phase = tracer.phase, name
            try:
                with original(timers, name):
                    yield
            finally:
                tracer.phase = previous

        timers_cls.phase = phase


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (traced children only)."""
    import repro.cli as cli
    import repro.core.lightnas as lightnas_mod
    import repro.nn.functional as F
    from repro.archive import query as queries
    from repro.archive import service as service_mod
    from repro.archive.store import ArchitectureArchive
    from repro.core.gumbel import GumbelSampler
    from repro.core.lambda_opt import LagrangeMultiplier
    from repro.core.objective import ConstrainedObjective
    from repro.hardware.energy import EnergyModel
    from repro.hardware.latency import LatencyModel
    from repro.nn.optim import SGD, Adam
    from repro.nn.tensor import Tensor
    from repro.predictor.mlp import MLPPredictor
    from repro.proxy.accuracy_model import AccuracyOracle
    from repro.proxy.dataset import SyntheticTask
    from repro.proxy.supernet import SuperNet
    from repro.runtime.telemetry import PhaseTimers

    wrap = tracer.wrap
    # process setup
    wrap(LatencyModel, "__init__", "setup.cost_tables")
    wrap(EnergyModel, "__init__", "setup.cost_tables")
    wrap(cli, "fit_latency_predictor", "setup.predictor")
    wrap(lightnas_mod, "collect_latency_dataset", "setup.predictor")
    wrap(MLPPredictor, "fit", "setup.predictor")
    wrap(lightnas_mod.LightNAS, "__init__", "setup.engine")
    wrap(SuperNet, "__init__", "setup.engine")
    wrap(service_mod.ArchiveService, "__init__", "setup.engine")
    wrap(service_mod, "make_server", "setup.engine")
    wrap(ArchitectureArchive, "__init__", "setup.archive_boot")

    # step components; the supernet forward counts as the validation loss
    # except while the weights train
    tracer.track_phases(PhaseTimers)

    def forward_label():
        return ("step.train_loss" if tracer.phase == "train_weights"
                else "step.valid_loss")

    work = functools.partial(wrap, work_only=True)
    work(GumbelSampler, "sample_gates", "step.sample_gates")
    work(AccuracyOracle, "differentiable_loss", "step.valid_loss")
    work(SuperNet, "forward_single_path", forward_label)
    work(F, "cross_entropy", forward_label)
    work(ConstrainedObjective, "loss", "step.objective")
    work(Tensor, "backward", "step.backward")
    work(Adam, "step", "step.optimizer")
    work(SGD, "step", "step.optimizer")
    work(LagrangeMultiplier, "ascend", "step.lambda")
    work(SyntheticTask, "sample_batch", "step.batch")

    # serving: handlers, batching, predictor, queries, store
    for endpoint in ("predict", "query", "pareto", "nearest", "stats"):
        work(service_mod.ArchiveService, endpoint, f"handler.{endpoint}")
    work(service_mod.BatchingPredictor, "predict", "batcher.predict")
    work(MLPPredictor, "predict_population", "predictor.population",
         count=lambda args, kwargs: len(args[1]))
    for fn in ("top_k", "pareto_rows", "hamming_neighbors", "describe_rows"):
        work(queries, fn, f"query.{fn}")
    work(ArchitectureArchive, "index", "store.index")
    work(ArchitectureArchive, "add_population", "store.add_population")


# ----------------------------------------------------------------------
# Boundaries: where setup ends and work begins
# ----------------------------------------------------------------------

class Marks:
    """The work window (outermost hooked call) and what it returned.

    Each boundary also records the process's CPU time (all threads), so
    that the parent can tell CPU time from waiting in every interval.
    """

    def __init__(self, tracer, setup_only: bool) -> None:
        self.tracer = tracer
        self.setup_only = setup_only
        self.work_start = None
        self.work_end = None
        self.cpu_start = None
        self.cpu_end = None
        self.setup_spans = None
        self.work_spans = None
        self.depth = 0
        self.searches = []
        self.fleet_stats = None

    def begin(self) -> None:
        if self.work_start is None:
            self.work_start = time.monotonic()
            self.cpu_start = time.process_time()
            if self.tracer is not None:
                self.setup_spans = self.tracer.snapshot()
                self.tracer.in_work = True
            if self.setup_only:
                raise SetupDone()
        self.depth += 1

    def end(self) -> None:
        self.depth -= 1
        if self.depth == 0:
            self.work_end = time.monotonic()
            self.cpu_end = time.process_time()
            if self.tracer is not None:
                self.tracer.in_work = False
                self.work_spans = self.tracer.snapshot()


def install_boundaries(marks: Marks) -> None:
    """Mark the search call (or the whole grid) as the work window."""
    from repro.core.lightnas import LightNAS
    from repro.runtime.parallel import RunFleet

    search, run = LightNAS.search, RunFleet.run

    @functools.wraps(search)
    def hooked_search(engine, *args, **kwargs):
        marks.begin()
        try:
            result = search(engine, *args, **kwargs)
        finally:
            marks.end()
        cfg = engine.config
        marks.searches.append({
            "target": float(cfg.target), "seed": int(cfg.seed),
            "arch": [int(i) for i in result.architecture.op_indices],
            "predicted": float(result.predicted_metric),
            "lambda": float(result.final_lambda),
            "alpha_steps": int(result.num_search_steps),
            "w_steps": (cfg.epochs * cfg.steps_per_epoch
                        if cfg.mode == "supernet" else 0),
        })
        return result

    @functools.wraps(run)
    def hooked_run(fleet, *args, **kwargs):
        marks.begin()
        try:
            report = run(fleet, *args, **kwargs)
        finally:
            marks.end()
        marks.fleet_stats = dict(report.stats)
        return report

    LightNAS.search = hooked_search
    RunFleet.run = hooked_run


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def run_search(spec: dict, marks: Marks, out: dict) -> None:
    import repro.cli as cli

    argv = wl.cli_argv(spec["workload"], spec["seed"], spec["small"])
    if spec["traced"]:
        journal = os.path.join(spec["work"], "journal.jsonl")
        argv += ["--profile-ops", "--trace", journal]
        out["journal"] = journal
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SetupDone:
            code = 0
    if code:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")
    out["searches"] = marks.searches
    out["fleet_stats"] = marks.fleet_stats


def run_serve(spec: dict, marks: Marks, out: dict) -> None:
    """Serve a seeded archive to two closed-loop clients plus writers.

    Built as ``repro serve --archive`` (``cmd_serve``) builds it: the MLP
    latency predictor through the CLI's own ``_metric_predictor`` (campaign
    cache), a writable archive, default batching window.
    """
    import repro.cli as cli
    from repro.archive import service as service_mod
    from repro.archive.store import ArchitectureArchive
    from repro.hardware.device import resolve_device
    from repro.hardware.energy import EnergyModel
    from repro.hardware.latency import LatencyModel
    from repro.search_space.space import SearchSpace

    space = SearchSpace()
    device = resolve_device(wl.DEVICE)
    latency_model = LatencyModel(space, device)
    energy_model = EnergyModel(space, device, latency_model=latency_model)
    predictor = cli._metric_predictor("latency", space, latency_model,
                                      energy_model)
    archive = ArchitectureArchive(spec["archive"], space=space)
    service = service_mod.ArchiveService(
        space, predictor, metric_name=cli.METRIC_ALIASES["latency"],
        device_name=device.name, archive=archive)
    server = service_mod.make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    try:
        with open(spec["scripts"], encoding="utf-8") as handle:
            scripts = json.load(handle)
        try:
            marks.begin()
        except SetupDone:
            return
        _load(server, archive, device.name, scripts, predictor, marks, out)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def _request(port: int, endpoint: str, data) -> tuple:
    """One request on its own connection, as a one-shot client sends it.

    (On a kept-alive connection every response stalls ~40 ms: the server
    writes headers and body in two sends, so Nagle's algorithm holds the
    body until the client's delayed ACK.  See README.md.)
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if data is None:
            conn.request("GET", f"/{endpoint}")
        else:
            # bytes, so the request line, headers and body go in one send
            conn.request("POST", f"/{endpoint}", body=data,
                         headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _load(server, archive, device_name, scripts, predictor, marks, out):
    import numpy as np

    port = server.server_address[1]
    latencies = {kind: [] for kind in wl.SERVE_MIX}
    errors = []
    records_seen = [[] for _ in scripts]
    predict_rows = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(scripts))

    def client(index: int) -> None:
        barrier.wait()
        for op in scripts[index]:
            kind, body = op["kind"], op["body"]
            try:
                if kind == "write":
                    ops = np.asarray(body["ops"], dtype=np.int64)
                    metrics = {k: np.asarray(v) for k, v in body.items()
                               if k != "ops"}
                    start = time.perf_counter()
                    archive.add_population(ops, device=device_name,
                                           engine="perfbench", **metrics)
                    elapsed = time.perf_counter() - start
                    status, payload = 200, None
                else:
                    data = (None if body is None
                            else json.dumps(body).encode("utf-8"))
                    start = time.perf_counter()
                    status, payload = _request(port, kind, data)
                    elapsed = time.perf_counter() - start
            except (OSError, http.client.HTTPException, ValueError) as exc:
                with lock:
                    errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            with lock:
                if status != 200:
                    errors.append(f"{kind}: HTTP {status}: {payload}")
                    continue
                latencies[kind].append(elapsed * 1e3)
                if kind == "stats":
                    records_seen[index].append(payload["archive"]["records"])
                elif kind == "predict":
                    predict_rows.append((body["archs"],
                                         payload["predictions"]))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(scripts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    marks.end()

    _, final = _request(port, "stats", None)

    # the direct, unbatched reference for every /predict request
    direct = [predictor.predict_population(
                  np.asarray(archs, dtype=np.int64)).tolist()
              for archs, _ in predict_rows]
    served = [values for _, values in predict_rows]
    out.update({
        "latencies_ms": latencies,
        "errors": errors,
        "operations": sum(len(s) for s in scripts),
        "records_seen": records_seen,
        "final_records": final["archive"]["records"],
        "predict_served": served,
        "predict_direct": direct,
        "batcher": {k: final[k] for k in (
            "predict_requests", "predict_batches", "predict_archs",
            "predict_cancelled", "largest_batch")},
    })


# ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)

    import repro.cli  # noqa: F401  (what every `repro` command pays)
    imported = time.monotonic()

    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        install_spans(tracer)
    marks = Marks(tracer, setup_only=spec["mode"] == "setup")
    install_boundaries(marks)

    out = {"imported": imported}
    if spec["workload"] == "serve-mixed":
        run_serve(spec, marks, out)
    else:
        run_search(spec, marks, out)
    out.update({
        "work_start": marks.work_start,
        "work_end": marks.work_end,
        "cpu_start": marks.cpu_start,
        "cpu_end": marks.cpu_end,
        "setup_spans": marks.setup_spans,
        "work_spans": marks.work_spans,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_exit": time.process_time(),
    })
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
