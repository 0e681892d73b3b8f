"""Command-line interface: ``python -m repro <command>``.

Gives the library a downstream-usable surface without writing any code:

* ``info``      — search-space / device summary.
* ``search``    — one hardware-constrained search (latency, energy or MACs).
* ``predict``   — predict all metrics for an architecture (or a batch file).
* ``evaluate``  — Table-2-style evaluation row for an architecture.
* ``sweep``     — one search per target; prints the comparison table
  (the searches run as one stacked α-step; ``--jobs N`` splits them
  into N shares, each stacked on its own forked worker, N capped at the
  usable CPUs — bit-identical either way).
* ``stability`` — Fig.-7-style multi-seed stability campaign: one search
  per (target, seed) pair, mean ± std per target (``--jobs`` as above).
* ``serve``     — batched JSON prediction/query API over HTTP
  (``--workers N`` forks an ``SO_REUSEPORT`` group sharing the archive's
  memory-mapped segments).
* ``query``     — offline top-k / Pareto / nearest queries over an archive.
* ``compact``   — cut a memory-mapped segment so the next archive open is
  an mmap + tail replay instead of a full log parse.
* ``fleet``     — parametric device fleets: list generated devices,
  retarget an archive sweep to N devices through proxy transfer maps,
  calibrate per-device transfer maps, or run one constrained search
  against a fleet device.

Architectures are passed as comma-separated operator indices, e.g.
``--arch 1,1,5,5,...`` (one per searchable layer), matching
``Architecture.op_indices`` and the JSON emitted by ``search``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import time
from typing import List, Optional

import numpy as np

from .core.lightnas import LightNAS, LightNASConfig, METRIC_ALIASES, \
    run_grid
from .eval.imagenet import ImageNetEvaluator
from .experiments.reporting import render_table
from .experiments.shared import fit_energy_predictor, fit_latency_predictor
from . import fleet as fleet_pkg
from .hardware.device import device_hints, known_devices, resolve_device
from .hardware.energy import EnergyModel
from .hardware.flops import count_macs, count_macs_many, count_params, \
    count_params_many
from .hardware.latency import LatencyModel
from .predictor.analytic import AnalyticCostPredictor
from .proxy.accuracy_model import AccuracyOracle
from .runtime.checkpoint import CheckpointError, latest_checkpoint
from .runtime.parallel import TaskFailure
from .runtime.telemetry import NullJournal, RunJournal, read_journal, \
    summarize_fleet, summarize_runs
from .search_space.macro import MacroConfig
from .search_space.space import Architecture, SearchSpace

__all__ = ["main", "build_parser"]


def _space(args) -> SearchSpace:
    if getattr(args, "tiny", False):
        return SearchSpace(MacroConfig.tiny())
    return SearchSpace()


def _parse_arch(text: str, space: SearchSpace) -> Architecture:
    try:
        arch = Architecture(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise SystemExit(f"error: malformed --arch {text!r}: {exc}")
    try:
        space.validate(arch)
    except ValueError as exc:
        raise SystemExit(f"error: architecture does not fit the space: {exc}")
    return arch


def _device(args):
    try:
        return resolve_device(getattr(args, "device", "xavier"))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _device_help(default: str = "") -> str:
    """``--device`` help text derived from the device registry.

    Static names come from ``DEVICE_ALIASES`` (deduplicated), name
    patterns from the fleet families — so the help can never drift from
    what ``resolve_device`` actually accepts.
    """
    names = ", ".join(known_devices())
    hints = ", ".join(device_hints())
    tail = f" (default {default})" if default else ""
    return f"device profile: {names}; fleet devices: {hints}{tail}"


def _read_arch_file(path: str, space: SearchSpace) -> np.ndarray:
    """Read one comma-separated architecture per line into an (N, L) matrix.

    Blank lines and ``#`` comments are skipped; any malformed line aborts
    with the offending line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise SystemExit(f"error: cannot read --arch-file: {exc}")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            rows.append(_parse_arch(text, space).op_indices)
        except SystemExit as exc:
            raise SystemExit(f"{exc} ({path}:{lineno})")
    if not rows:
        raise SystemExit(f"error: --arch-file {path!r} holds no architectures")
    return np.asarray(rows, dtype=np.int64)


def _metric_predictor(metric: str, space: SearchSpace,
                      latency_model: LatencyModel,
                      energy_model: EnergyModel):
    # small (test/toy) spaces need far less campaign data than the paper's
    # 10k protocol — keep the CLI responsive on them
    samples = 1500 if space.num_layers <= 8 else 10_000
    if metric == "latency":
        predictor, _ = fit_latency_predictor(space, latency_model,
                                             num_samples=samples)
        return predictor
    if metric == "energy":
        predictor, _ = fit_energy_predictor(space, energy_model,
                                            num_samples=samples)
        return predictor
    if metric == "macs":
        return AnalyticCostPredictor(space, "macs_m")
    raise SystemExit(f"error: unknown metric {metric!r}")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_info(args) -> int:
    space = _space(args)
    latency_model = LatencyModel(space)
    device = latency_model.device
    rows = [
        ["searchable layers (L−1)", space.num_layers],
        ["operators per layer (K)", space.num_operators],
        ["space size |A|", f"{space.size:.3g}"],
        ["input resolution", space.macro.input_resolution],
        ["device", device.name],
        ["batch size", device.batch_size],
    ]
    print(render_table(["property", "value"], rows, title="LightNAS space"))
    return 0


def _resume_path(args) -> Optional[str]:
    """Resolve --resume against --checkpoint-dir.

    Returns the latest checkpoint, or ``None`` (with a notice) when the
    directory holds none yet — so re-running the same command after a
    crash works whether or not a checkpoint was ever written.
    """
    if not getattr(args, "resume", False):
        return None
    if not args.checkpoint_dir:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    latest = latest_checkpoint(args.checkpoint_dir)
    if latest is None:
        print(f"no checkpoint in {args.checkpoint_dir!r} yet; starting fresh",
              file=sys.stderr)
        return None
    print(f"resuming from {latest}", file=sys.stderr)
    return latest


def _journal(args) -> RunJournal:
    return RunJournal(args.trace) if getattr(args, "trace", "") else NullJournal()


def cmd_search(args) -> int:
    space = _space(args)
    latency_model = LatencyModel(space)
    energy_model = EnergyModel(space, latency_model=latency_model)
    overrides = {"compute_dtype": args.dtype, "profile_ops": args.profile_ops}
    if args.epochs:
        overrides["epochs"] = args.epochs
    try:
        if args.tiny:
            if args.metric != "latency":
                raise SystemExit(
                    f"error: --tiny runs the bi-level supernet search, which "
                    f"supports --metric latency only (got {args.metric!r}); "
                    f"drop --tiny to constrain {args.metric}"
                )
            config = LightNASConfig.tiny(latency_target_ms=args.target,
                                         seed=args.seed, **overrides)
            # the engine's default fit, loaded from the campaign cache
            predictor, _ = fit_latency_predictor(
                space, latency_model, **LightNAS.predictor_recipe(args.seed))
            engine = LightNAS(config, predictor=predictor)
        else:
            predictor = _metric_predictor(args.metric, space, latency_model,
                                          energy_model)
            # LightNASConfig.__post_init__ canonicalises the metric shorthand
            # ("latency" → "latency_ms", ...) and validates it.
            config = LightNASConfig.paper(args.target, space=space,
                                          seed=args.seed,
                                          metric_name=args.metric, **overrides)
            engine = LightNAS(config, predictor=predictor)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    journal = _journal(args)
    try:
        result = engine.search(
            verbose=args.verbose,
            checkpoint_dir=args.checkpoint_dir or None,
            checkpoint_every=args.checkpoint_every,
            resume_from=_resume_path(args),
            journal=journal,
        )
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        journal.close()

    payload = result.summary()
    payload["true_latency_ms"] = latency_model.latency_ms(result.architecture)
    payload["true_energy_mj"] = energy_model.energy_mj(result.architecture)
    payload["macs_m"] = count_macs(space, result.architecture) / 1e6
    print(json.dumps(payload, indent=2))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"saved to {args.output}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    space = _space(args)
    device = _device(args)
    latency_model = LatencyModel(space, device)
    energy_model = EnergyModel(space, device, latency_model=latency_model)
    if bool(args.arch) == bool(args.arch_file):
        raise SystemExit("error: give exactly one of --arch or --arch-file")
    if args.arch_file:
        # batch path: one vectorized forward per metric over all rows
        ops = _read_arch_file(args.arch_file, space)
        payload = {
            "device": device.name,
            "count": len(ops),
            "archs": ops.tolist(),
            "latency_ms": [round(v, 6) for v in
                           latency_model.latency_many(ops).tolist()],
            "energy_mj": [round(v, 6) for v in
                          energy_model.energy_many(ops).tolist()],
            "macs_m": [round(v, 6) for v in
                       (count_macs_many(space, ops) / 1e6).tolist()],
            "params_m": [round(v, 6) for v in
                         (count_params_many(space, ops) / 1e6).tolist()],
        }
        print(json.dumps(payload, indent=2))
        return 0
    arch = _parse_arch(args.arch, space)
    rows = [
        ["device", device.name],
        ["latency (model)", f"{latency_model.latency_ms(arch):.3f} ms"],
        ["energy (model)", f"{energy_model.energy_mj(arch):.1f} mJ"],
        ["multi-adds", f"{count_macs(space, arch) / 1e6:.1f} M"],
        ["parameters", f"{count_params(space, arch) / 1e6:.2f} M"],
        ["depth (non-skip)", arch.depth(space.skip_index)],
    ]
    print(render_table(["metric", "value"], rows,
                       title="architecture metrics"))
    return 0


def cmd_evaluate(args) -> int:
    space = _space(args)
    arch = _parse_arch(args.arch, space)
    evaluator = ImageNetEvaluator(space)
    row = evaluator.evaluate(arch, name=args.name, with_se_last=args.se)
    print(json.dumps(row.as_dict(), indent=2))
    return 0


_METRIC_UNITS = {"latency": "ms", "energy": "mJ", "macs": "M"}


def _parse_list(text: str, flag: str, convert, name=str) -> list:
    """Parse a comma-separated flag value, or exit naming ``flag``.

    ``name`` renders a value the way its task and checkpoint sub-directory
    are named, so two values sharing a name count as duplicates.
    """
    items = text.split(",")
    if not any(item.strip() for item in items):
        raise SystemExit(f"error: {flag} names no values")
    try:
        values = [convert(item) for item in items]
    except ValueError as exc:
        raise SystemExit(f"error: malformed {flag}: {exc}")
    names = [name(value) for value in values]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise SystemExit(f"error: duplicate values in {flag}: "
                         f"{', '.join(duplicates)}")
    return values


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_targets(args) -> List[float]:
    return _parse_list(args.targets, "--targets", _finite,
                       name=lambda t: f"{t:g}")


def _run_grid(args, targets: List[float], seeds: List[int],
              name) -> List[dict]:
    """One search per (target, seed), targets outer, through
    :func:`run_grid`; ``name(config)`` names each task and its checkpoint
    sub-directory.  Returns the result rows in task order.

    Failures abort with a ``SystemExit`` after dumping worker tracebacks to
    stderr; with ``--jobs > 1`` a one-line pool summary goes to stderr (the
    full stats table lives in the journal: ``repro trace-summary``).
    """
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    space = _space(args)
    latency_model = LatencyModel(space)
    energy_model = EnergyModel(space, latency_model=latency_model)
    predictor = _metric_predictor(args.metric, space, latency_model,
                                  energy_model)
    true_value = {
        "latency": latency_model.latency_ms,
        "energy": energy_model.energy_mj,
        "macs": lambda arch: count_macs(space, arch) / 1e6,
    }[args.metric]
    overrides = {"epochs": args.epochs} if args.epochs else {}
    try:
        # LightNASConfig.__post_init__ canonicalises the metric shorthand
        # ("latency" → "latency_ms", ...) and validates every target in
        # the parent, before any worker forks.
        configs = [LightNASConfig.paper(target, space=space, seed=seed,
                                        metric_name=args.metric,
                                        profile_ops=args.profile_ops,
                                        **overrides)
                   for target in targets for seed in seeds]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    # the sub-directory names are part of the checkpoint layout contract:
    # a --jobs 1 grid must resume a --jobs N grid's checkpoints and back
    names = [name(config) for config in configs]
    journal = _journal(args)
    try:
        report = run_grid(configs, predictor, jobs=args.jobs,
                          journal=journal,
                          checkpoint_root=args.checkpoint_dir or None,
                          checkpoint_every=args.checkpoint_every,
                          resume=args.resume, names=names)
    finally:
        journal.close()
    if report.interrupted:
        done = sum(1 for r in report.results if r.ok)
        raise SystemExit(
            f"interrupted: {done}/{len(report.results)} tasks completed")
    try:
        results = report.values()
    except TaskFailure as exc:
        for failure in report.failures():
            if failure.traceback:
                print(failure.traceback, file=sys.stderr)
        raise SystemExit(f"error: {exc}")
    stats = report.stats
    if args.jobs > 1:
        # run_grid caps the workers at the usable CPUs
        capped = (f" (--jobs {args.jobs} capped at {stats['jobs']} usable "
                  f"CPUs)" if stats["jobs"] < args.jobs else "")
        print(f"fleet: {stats['completed']}/{stats['tasks']} tasks on "
              f"{stats['jobs']} workers, {stats['retries']} retries, "
              f"utilization {stats['utilization'] * 100:.0f}%"
              f"{capped}", file=sys.stderr)
    oracle = AccuracyOracle(space)
    rows = []
    for config, result in zip(configs, results):
        evaluation = oracle.evaluate(result.architecture)
        rows.append({
            "target": config.target,
            "seed": config.seed,
            "true_value": true_value(result.architecture),
            "predicted": float(result.predicted_metric),
            "top1": evaluation.top1,
            "top5": evaluation.top5,
            "arch": list(result.architecture.op_indices),
        })
    return rows


def cmd_sweep(args) -> int:
    targets = _parse_targets(args)
    values = _run_grid(args, targets, [args.seed],
                       lambda config: f"target_{config.target:g}")
    unit = _METRIC_UNITS[args.metric]
    rows = [[f"{row['target']:g} {unit}", row["true_value"],
             row["top1"], row["top5"],
             ",".join(str(i) for i in row["arch"])]
            for row in values]
    print(render_table(
        ["target", f"{args.metric} {unit}", "top-1 %", "top-5 %",
         "architecture"],
        rows, title="one search per target — no λ tuning"))
    return 0


def cmd_stability(args) -> int:
    """Fig.-7-style stability campaign: (targets × seeds) searches."""
    targets = _parse_targets(args)
    seeds = _parse_list(args.seeds, "--seeds", int)
    values = _run_grid(
        args, targets, seeds,
        lambda config: f"target_{config.target:g}_seed_{config.seed}")

    unit = _METRIC_UNITS[args.metric]
    per_target = {target: [] for target in targets}
    for row in values:
        per_target[row["target"]].append(row)
    rows = []
    for target in targets:
        runs = per_target[target]
        finals = np.asarray([r["true_value"] for r in runs], dtype=np.float64)
        archs = {tuple(r["arch"]) for r in runs}
        rows.append([f"{target:g} {unit}", len(runs),
                     f"{finals.mean():.3f} ± {finals.std():.3f}",
                     f"{finals.min():.3f} / {finals.max():.3f}",
                     len(archs)])
    print(render_table(
        ["target", "seeds", f"{args.metric} {unit} (mean ± std)",
         "min / max", "distinct archs"],
        rows,
        title=f"multi-seed stability — seeds {args.seeds}"))
    if args.output:
        payload = {"metric": args.metric, "targets": targets,
                   "seeds": seeds, "runs": values}
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"saved to {args.output}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .archive.service import ArchiveService, make_server
    from .archive.store import ArchitectureArchive, ArchiveError

    space = _space(args)
    device = _device(args)
    workers = max(1, args.workers)
    multi = workers > 1
    if multi and not hasattr(socket, "SO_REUSEPORT"):
        raise SystemExit("error: --workers > 1 needs SO_REUSEPORT, which "
                         "this platform does not provide")
    if multi and not hasattr(os, "fork"):
        raise SystemExit("error: --workers > 1 needs os.fork, which this "
                         "platform does not provide")

    # everything forked workers share is built BEFORE the fork, while the
    # process is still single-threaded: the predictor (copy-on-write numpy
    # arrays) and the archive, whose mmap'd segment pages are physically
    # shared across the whole worker group through the page cache
    latency_model = LatencyModel(space, device)
    energy_model = EnergyModel(space, device, latency_model=latency_model)
    predictor = _metric_predictor(args.metric, space, latency_model,
                                  energy_model)
    archive = None
    if args.archive:
        try:
            # a worker group has no single writer, so it opens read-only
            # (multi-process appends to one WAL would interleave frames)
            archive = ArchitectureArchive(args.archive, space=space,
                                          read_only=multi)
        except ArchiveError as exc:
            raise SystemExit(f"error: {exc}")

    host, port = args.host, args.port
    probe = None
    if multi and port == 0:
        # reserve one concrete port for the whole SO_REUSEPORT group; the
        # probe stays open until worker 0's real listener has joined
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        port = probe.getsockname()[1]

    children: List[int] = []
    worker_id = 0
    for i in range(1, workers):
        pid = os.fork()
        if pid == 0:
            worker_id = i
            children = []
            break
        children.append(pid)
    if probe is not None and worker_id != 0:
        probe.close()
        probe = None

    # per process from here: the batcher thread and the listener socket
    # must be created after the fork
    service = ArchiveService(
        space, predictor,
        metric_name=METRIC_ALIASES.get(args.metric, args.metric),
        device_name=device.name,
        archive=archive,
        default_page_limit=args.page_limit or None,
    )
    server = make_server(service, host=host, port=port,
                         verbose=args.verbose, reuse_port=multi)
    bound_host, bound_port = server.server_address[:2]
    if probe is not None:
        probe.close()
    if worker_id == 0:
        # flushed so wrappers (the CI smoke test) can scrape the bound port
        suffix = f" ({workers} workers)" if multi else ""
        print(f"serving on http://{bound_host}:{bound_port}{suffix}",
              flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    return 0


def cmd_compact(args) -> int:
    from .archive.store import ArchitectureArchive, ArchiveError

    try:
        # geometry comes from the archive header; a missing file is an error
        archive = ArchitectureArchive(args.archive)
    except ArchiveError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        start = time.perf_counter()
        segment = archive.compact()
        print(json.dumps({
            "archive": args.archive,
            "segment": segment,
            "records": len(archive),
            "wall_seconds": round(time.perf_counter() - start, 3),
        }, indent=2))
        return 0
    except ArchiveError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        archive.close()


def _parse_budgets(pairs) -> dict:
    budgets = {}
    for pair in pairs or []:
        metric, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(
                f"error: --budget needs METRIC=VALUE, got {pair!r}")
        metric = METRIC_ALIASES.get(metric.strip(), metric.strip())
        try:
            budgets[metric] = float(value)
        except ValueError:
            raise SystemExit(
                f"error: --budget value {value!r} is not a number")
    return budgets


def cmd_query(args) -> int:
    from .archive import query as archive_query
    from .archive.store import ArchitectureArchive, ArchiveError

    try:
        # geometry comes from the archive header; a missing file is an error
        # (creating an empty archive here would just mask a typoed path)
        archive = ArchitectureArchive(args.archive)
    except ArchiveError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        if args.stats:
            print(json.dumps(archive.stats(), indent=2))
            return 0
        device = args.device or None
        index = archive.index()
        if device:
            index.device_position(device)  # loud on a device with no costs
        if args.pareto:
            if device is None:
                raise SystemExit("error: --pareto requires --device")
            rows = archive_query.pareto_rows(
                index, device=device, cost_metric=args.cost_metric)
            results = archive_query.describe_rows(index, rows, device)
        elif args.nearest:
            try:
                ops = [int(x) for x in args.nearest.split(",")]
            except ValueError as exc:
                raise SystemExit(f"error: malformed --nearest: {exc}")
            if not all(0 <= op < archive.num_operators for op in ops):
                raise SystemExit(
                    f"error: --nearest operator indices must lie in "
                    f"0..{archive.num_operators - 1}, got {args.nearest}")
            rows, distances = archive_query.hamming_neighbors(
                index, ops, args.k)
            results = archive_query.describe_rows(index, rows, device)
            for entry, distance in zip(results, distances.tolist()):
                entry["hamming_layers"] = distance
        else:
            objective = METRIC_ALIASES.get(args.objective, args.objective)
            rows = archive_query.top_k(
                index, args.k, objective=objective, device=device,
                budgets=_parse_budgets(args.budget))
            results = archive_query.describe_rows(index, rows, device)
        print(json.dumps({"count": len(results), "results": results},
                         indent=2))
        return 0
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        archive.close()


def cmd_trace_summary(args) -> int:
    try:
        events = read_journal(args.journal)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    runs = summarize_runs(events)
    fleet = summarize_fleet(events)
    if not runs and not fleet:
        raise SystemExit(f"error: {args.journal!r} contains no run_header "
                         f"events — not a run journal?")
    if fleet:
        stats = fleet.get("stats") or {}
        timers = ", ".join(
            f"{name} {info['total_s']:.2f}s/{info['calls']}"
            for name, info in (fleet.get("phase_timers") or {}).items()
        ) or "—"
        retries = "; ".join(
            f"task {r.get('task')} ({r.get('name')}) attempt "
            f"{r.get('attempt')}"
            for r in fleet["retries"]
        ) or "—"
        utilization = stats.get("utilization")
        rows = [
            ["jobs", fleet["jobs"]],
            ["tasks", f"{stats.get('completed', '?')} ok / "
                      f"{stats.get('failed', 0)} failed / "
                      f"{stats.get('cancelled', 0)} cancelled of "
                      f"{fleet['declared_tasks']}"],
            ["retries", retries],
            ["workers spawned", stats.get("workers_spawned", "—")],
            ["fleet wall time (s)", stats.get("wall_s", "—")],
            ["Σ task wall / cpu (s)",
             f"{stats.get('task_wall_s', 0)} / {stats.get('task_cpu_s', 0)}"],
            ["worker utilization",
             f"{utilization * 100:.0f}%" if utilization is not None else "—"],
            ["phase timers (Σ)", timers],
        ]
        print(render_table(["field", "value"], rows, title="run fleet"))
    for index, run in enumerate(runs):
        timers = ", ".join(
            f"{name} {info['total_s']:.2f}s/{info['calls']}"
            for name, info in run["phase_timers"].items()
        ) or "—"
        arch = run["architecture"]
        rows = []
        task = run.get("task")
        if task:
            rows.append(["fleet task",
                         f"{task.get('task')}: {task.get('name')} "
                         f"({task.get('status')}, "
                         f"{task.get('retries', 0)} retries)"])
        rows += [
            ["engine", run["engine"]],
            ["metric / target", f"{run['metric_name']} / {run['target']}"],
            ["seed", run["seed"]],
            ["resumed from epoch", run["resumed_from_epoch"] or "—"],
            ["epochs recorded", run["epochs_recorded"]],
            ["checkpoints written", run["checkpoints_written"]],
            ["final predicted metric", run["final_predicted_metric"]],
            ["final λ", run["final_lambda"]],
            ["final valid loss", run["final_valid_loss"]],
            ["architecture",
             ",".join(str(i) for i in arch) if arch else "—"],
            ["wall time (s)", run["wall_time_s"]],
            ["phase timers", timers],
        ]
        plans = run.get("plan_stats") or {}
        if plans:
            slots = run.get("batch_slots") or 1
            shared = f", shared by {slots} slots" if slots > 1 else ""
            rows.append(["step plans",
                         f"{plans.get('plans_compiled', 0)} compiled, "
                         f"{plans.get('replays', 0)} replays, "
                         f"{plans.get('eager_steps', 0)} eager, "
                         f"arena {plans.get('arena_bytes', 0) / 1e6:.1f} MB"
                         f"{shared}"])
        print(render_table(["field", "value"], rows,
                           title=f"run {index + 1}/{len(runs)}"))
        if args.ops:
            profile = run.get("op_profile") or {}
            if not profile:
                print("no op profile in this run — re-run the search with "
                      "--profile-ops", file=sys.stderr)
                continue
            op_rows = [
                [kind, f"{info['total_ms']:.1f}", info["calls"],
                 f"{info['mean_ms']:.4f}",
                 f"{info.get('alloc_bytes', 0) / 1e6:.2f}"]
                for kind, info in profile.items()
            ]
            print(render_table(
                ["op", "total ms", "calls", "mean ms", "alloc MB"], op_rows,
                title=f"per-op profile — run {index + 1}/{len(runs)}"))
            layers = run.get("layer_profile") or {}
            if layers:
                layer_rows = [
                    [key, f"{info['total_ms']:.1f}", info["calls"],
                     f"{info['mean_ms']:.4f}"]
                    for key, info in sorted(layers.items(),
                                            key=lambda kv: -kv[1]["total_ms"])
                ]
                print(render_table(
                    ["layer/op", "forward ms", "calls", "mean ms"],
                    layer_rows,
                    title=f"per-layer forward — run {index + 1}/{len(runs)}"))
    return 0


# ----------------------------------------------------------------------
# Fleet commands
# ----------------------------------------------------------------------

#: Default retargeting fleet: three members of every family (12 devices).
_DEFAULT_FLEET_SPEC = "phone=3,mcu=3,server-cpu=3,edge-gpu=3"


def _parse_fleet_devices(args) -> List:
    """Resolve ``--devices`` (explicit names) or ``--fleet`` (FAMILY=N
    spec) into a list of :class:`DeviceProfile`, preserving order."""
    if getattr(args, "devices", ""):
        names = [n.strip() for n in args.devices.split(",") if n.strip()]
        if not names:
            raise SystemExit("error: --devices names no devices")
        try:
            return [resolve_device(name) for name in names]
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    spec = getattr(args, "fleet", "") or _DEFAULT_FLEET_SPEC
    seed = getattr(args, "fleet_seed", fleet_pkg.DEFAULT_FLEET_SEED)
    devices = []
    for part in spec.split(","):
        family, sep, count = part.strip().partition("=")
        if not sep:
            raise SystemExit(
                f"error: --fleet needs FAMILY=COUNT pairs, got {part!r}")
        try:
            devices.extend(
                fleet_pkg.generate_fleet(family, int(count), seed))
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    return devices


def _proxy_transfer(args, space: SearchSpace, devices: List):
    """The proxy device, its campaign latency predictor (cached) and its
    transfer maps to ``devices``, calibrated on ``--calibration``
    architectures with ``--seed``; exits on a calibration it rejects."""
    from .fleet import ProxyTransfer

    latency_model = LatencyModel(space)
    proxy = latency_model.device
    predictor = _metric_predictor("latency", space, latency_model, None)
    try:
        transfer = ProxyTransfer.calibrate(
            predictor, space, devices, num_samples=args.calibration,
            seed=args.seed, proxy_device=proxy.name)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return proxy, predictor, transfer


def cmd_fleet_list(args) -> int:
    from .fleet import FLEET_FAMILIES, generate_fleet
    if args.family:
        try:
            devices = generate_fleet(args.family, args.count, args.seed)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        if args.json:
            print(json.dumps([{
                "name": d.name,
                "batch_size": d.batch_size,
                "peak_macs_per_ms": d.peak_macs_per_ms,
                "depthwise_efficiency": d.depthwise_efficiency,
                "bandwidth_bytes_per_ms": d.bandwidth_bytes_per_ms,
                "kernel_launch_ms": d.kernel_launch_ms,
                "network_overhead_ms": d.network_overhead_ms,
                "fusion_saving_ms": d.fusion_saving_ms,
            } for d in devices], indent=2))
            return 0
        rows = [[d.name, d.batch_size, f"{d.peak_macs_per_ms:.3g}",
                 f"{d.bandwidth_bytes_per_ms:.3g}",
                 f"{d.depthwise_efficiency:.3f}",
                 f"{d.kernel_launch_ms:.4f}", f"{d.network_overhead_ms:.2f}"]
                for d in devices]
        print(render_table(
            ["device", "batch", "MACs/ms", "bytes/ms", "dw eff",
             "launch ms", "overhead ms"],
            rows, title=f"fleet family {args.family!r} (seed {args.seed})"))
        return 0
    spec_rows = [[spec.name, spec.batch_size,
                  f"{spec.speed[0]:g}-{spec.speed[1]:g}x", spec.description]
                 for spec in FLEET_FAMILIES.values()]
    print(render_table(
        ["family", "batch", "speed vs proxy", "description"], spec_rows,
        title="parametric device families — members resolve as FAMILY-NN"))
    return 0


def cmd_fleet_retarget(args) -> int:
    from .archive.store import ArchitectureArchive, ArchiveError
    from .fleet import retarget_archive

    space = _space(args)
    devices = _parse_fleet_devices(args)
    _, predictor, transfer = _proxy_transfer(args, space, devices)
    try:
        archive = ArchitectureArchive(args.archive, space=space)
    except ArchiveError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        if not len(archive):
            raise SystemExit(
                f"error: archive {args.archive!r} holds no architectures")
        report = retarget_archive(archive, transfer, predictor,
                                  args.target, write_back=args.write_back)
    finally:
        archive.close()
    print(json.dumps(report, indent=2))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"saved to {args.output}", file=sys.stderr)
    return 0


def cmd_fleet_calibrate(args) -> int:
    space = _space(args)
    devices = _parse_fleet_devices(args)
    proxy, _, transfer = _proxy_transfer(args, space, devices)
    rows = []
    for device in devices:
        fmap = transfer.map_for(device.name)
        rows.append([device.name, fmap.calibration_size, len(fmap.x_knots),
                     f"{fmap.y_knots[0]:.3f}-{fmap.y_knots[-1]:.3f}"])
    print(render_table(
        ["device", "calibration pairs", "knots", "measured range (ms)"],
        rows,
        title=f"proxy transfer maps — proxy {proxy.name}, "
              f"seed {args.seed}"))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(transfer.to_payload(), handle, indent=2)
        print(f"saved to {args.output}", file=sys.stderr)
    return 0


def cmd_fleet_search(args) -> int:
    space = _space(args)
    device = _device(args)
    proxy, predictor, transfer = _proxy_transfer(args, space, [device])
    fleet_map = transfer.map_for(device.name)

    # Strict monotonicity makes the transfer map bijective, so a latency
    # budget on the target device is exactly a budget on the proxy:
    # map(LAT) <= T  <=>  LAT <= map^-1(T).  The ordinary proxy-device
    # search runs unchanged against the inverted target.
    proxy_target = fleet_map.inverse(args.target)
    if not (proxy_target > 0):
        raise SystemExit(
            f"error: target {args.target:g} ms maps to a non-positive "
            f"proxy budget ({proxy_target:.3g} ms) — it is below what "
            f"{device.name!r} can reach on this space")
    overrides = {}
    if args.epochs:
        overrides["epochs"] = args.epochs
    try:
        config = LightNASConfig.paper(proxy_target, space=space,
                                      seed=args.seed,
                                      metric_name="latency", **overrides)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    result = LightNAS(config, predictor=predictor).search(
        verbose=args.verbose)

    arch = result.architecture
    proxy_predicted = float(result.predicted_metric)
    device_truth = LatencyModel(space, device).latency_ms(arch)
    payload = result.summary()
    payload.update({
        "device": device.name,
        "target_ms": float(args.target),
        "proxy_device": proxy.name,
        "proxy_target_ms": proxy_target,
        "calibration_size": fleet_map.calibration_size,
        "predicted_device_latency_ms": fleet_map.transfer(proxy_predicted),
        "true_device_latency_ms": device_truth,
        "satisfied": bool(device_truth <= args.target),
    })
    print(json.dumps(payload, indent=2))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"saved to {args.output}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LightNAS (DAC 2022) reproduction — one-time "
                    "hardware-constrained differentiable NAS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="search-space and device summary")
    p_info.add_argument("--tiny", action="store_true")
    p_info.set_defaults(func=cmd_info)

    p_search = sub.add_parser("search", help="run one constrained search")
    p_search.add_argument("--target", type=float, required=True,
                          help="constraint value (ms, mJ or M MACs)")
    p_search.add_argument("--metric", choices=("latency", "energy", "macs"),
                          default="latency")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--epochs", type=int, default=0,
                          help="override search epochs (0 = paper default)")
    p_search.add_argument("--tiny", action="store_true",
                          help="toy space with real bi-level supernet training")
    p_search.add_argument("--output", default="",
                          help="also write the result JSON to this path")
    p_search.add_argument("--verbose", action="store_true")
    p_search.add_argument("--dtype", choices=("float64", "float32"),
                          default="float64",
                          help="supernet compute dtype, for --tiny only; "
                               "float64 (default) keeps seeded runs "
                               "bit-identical, float32 trades precision "
                               "for speed.  Surrogate searches always run "
                               "in float64 and reject float32")
    _add_runtime_flags(p_search)
    p_search.set_defaults(func=cmd_search)

    p_predict = sub.add_parser("predict", help="predict metrics of an arch")
    p_predict.add_argument("--arch", default="",
                           help="comma-separated operator indices")
    p_predict.add_argument("--arch-file", default="",
                           help="file with one comma-separated architecture "
                                "per line; prints a batch prediction JSON")
    p_predict.add_argument("--device", default="xavier",
                           help=_device_help(default="xavier"))
    p_predict.add_argument("--tiny", action="store_true")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="Table-2-style evaluation row")
    p_eval.add_argument("--arch", required=True)
    p_eval.add_argument("--name", default="custom")
    p_eval.add_argument("--se", type=int, default=0,
                        help="apply SE to the last N layers")
    p_eval.add_argument("--tiny", action="store_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="one search per target")
    p_sweep.add_argument("--targets", required=True,
                         help="comma-separated targets, e.g. 20,24,28")
    p_sweep.add_argument("--metric", choices=("latency", "energy", "macs"),
                         default="latency")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--epochs", type=int, default=0,
                         help="override search epochs (0 = paper default)")
    p_sweep.add_argument("--tiny", action="store_true")
    _add_runtime_flags(p_sweep)
    _add_jobs_flag(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_stability = sub.add_parser(
        "stability",
        help="multi-seed stability campaign: one search per "
             "(target, seed) pair, Fig.-7-style mean ± std per target")
    p_stability.add_argument("--targets", required=True,
                             help="comma-separated targets, e.g. 20,24,28")
    p_stability.add_argument("--seeds", default="0,1,2",
                             help="comma-separated seeds (default 0,1,2)")
    p_stability.add_argument("--metric",
                             choices=("latency", "energy", "macs"),
                             default="latency")
    p_stability.add_argument("--epochs", type=int, default=0,
                             help="override search epochs "
                                  "(0 = paper default)")
    p_stability.add_argument("--output", default="",
                             help="also write every run's row to this JSON")
    p_stability.add_argument("--tiny", action="store_true")
    _add_runtime_flags(p_stability)
    _add_jobs_flag(p_stability)
    p_stability.set_defaults(func=cmd_stability)

    p_serve = sub.add_parser(
        "serve", help="batched JSON prediction/query API over HTTP")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = pick an ephemeral port; the "
                              "bound address is printed either way)")
    p_serve.add_argument("--metric", choices=("latency", "energy", "macs"),
                         default="latency")
    p_serve.add_argument("--device", default="xavier",
                         help=_device_help(default="xavier"))
    p_serve.add_argument("--archive", default="",
                         help="serve /query, /pareto and /nearest from this "
                              "archive file")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="serve from this many processes accepting on "
                              "one SO_REUSEPORT socket group; the archive "
                              "is opened read-only and its mmap'd segments "
                              "are shared across the group (compact the "
                              "archive first: repro compact)")
    p_serve.add_argument("--page-limit", type=int, default=0,
                         help="default page size for /query, /pareto and "
                              "/nearest when the request sends no 'limit' "
                              "(0 = unpaginated responses by default)")
    p_serve.add_argument("--tiny", action="store_true")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each HTTP request")
    p_serve.set_defaults(func=cmd_serve)

    p_query = sub.add_parser(
        "query", help="offline top-k / Pareto / nearest over an archive")
    p_query.add_argument("--archive", required=True,
                         help="archive file written by a search or campaign")
    p_query.add_argument("--stats", action="store_true",
                         help="print the archive summary and exit")
    p_query.add_argument("--pareto", action="store_true",
                         help="per-device cost/score Pareto frontier "
                              "(requires --device)")
    p_query.add_argument("--nearest", default="", metavar="ARCH",
                         help="Hamming nearest neighbours of this "
                              "comma-separated architecture")
    p_query.add_argument("--k", type=int, default=10)
    p_query.add_argument("--objective", default="score",
                         help="top-k objective: score (maximised) or a cost "
                              "metric such as latency_ms (minimised)")
    p_query.add_argument("--device", default="",
                         help=_device_help())
    p_query.add_argument("--cost-metric", default="latency_ms",
                         help="x-axis of the --pareto frontier")
    p_query.add_argument("--budget", action="append", metavar="METRIC=VALUE",
                         help="feasibility budget for top-k, repeatable — "
                              "e.g. --budget latency_ms=24 --budget macs_m=300")
    p_query.set_defaults(func=cmd_query)

    p_compact = sub.add_parser(
        "compact",
        help="compact an archive into a memory-mapped segment so the next "
             "open is an mmap + WAL-tail replay, not a full log parse")
    p_compact.add_argument("--archive", required=True,
                           help="archive file written by a search or "
                                "campaign")
    p_compact.set_defaults(func=cmd_compact)

    p_fleet = sub.add_parser(
        "fleet",
        help="parametric device fleets + proxy-device retargeting")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    pf_list = fleet_sub.add_parser(
        "list", help="list device families, or the members of one")
    pf_list.add_argument("--family", default="",
                         help="expand this family's members instead of "
                              "listing all families")
    pf_list.add_argument("--count", type=int, default=8,
                         help="members to expand (default 8)")
    pf_list.add_argument("--seed", type=int,
                         default=fleet_pkg.DEFAULT_FLEET_SEED)
    pf_list.add_argument("--json", action="store_true",
                         help="emit full device constants as JSON")
    pf_list.set_defaults(func=cmd_fleet_list)

    pf_retarget = fleet_sub.add_parser(
        "retarget",
        help="sweep one archive against every fleet device: per-device "
             "constraint satisfaction + Pareto fronts via proxy transfer")
    pf_retarget.add_argument("--archive", required=True,
                             help="archive file written by a search or "
                                  "campaign")
    pf_retarget.add_argument("--target", type=float, required=True,
                             help="per-device latency budget (ms)")
    pf_retarget.add_argument("--devices", default="",
                             help="comma-separated device names (fleet or "
                                  "static); overrides --fleet")
    pf_retarget.add_argument("--fleet", default="",
                             help="FAMILY=COUNT spec, e.g. phone=4,mcu=4 "
                                  f"(default {_DEFAULT_FLEET_SPEC})")
    pf_retarget.add_argument("--fleet-seed", type=int,
                             default=fleet_pkg.DEFAULT_FLEET_SEED,
                             help="fleet generation seed for --fleet")
    pf_retarget.add_argument("--calibration", type=int, default=100,
                             help="calibration architectures per device "
                                  "(default 100)")
    pf_retarget.add_argument("--seed", type=int, default=0,
                             help="calibration sampling/measurement seed")
    pf_retarget.add_argument("--write-back", action="store_true",
                             help="append per-device predicted latencies "
                                  "to the archive so repro query/serve "
                                  "answer for fleet devices")
    pf_retarget.add_argument("--output", default="",
                             help="also write the report JSON to this path")
    pf_retarget.add_argument("--tiny", action="store_true")
    pf_retarget.set_defaults(func=cmd_fleet_retarget)

    pf_calibrate = fleet_sub.add_parser(
        "calibrate",
        help="fit per-device proxy transfer maps and save them as JSON")
    pf_calibrate.add_argument("--devices", default="",
                              help="comma-separated device names (fleet or "
                                   "static); overrides --fleet")
    pf_calibrate.add_argument("--fleet", default="",
                              help="FAMILY=COUNT spec, e.g. phone=4,mcu=4 "
                                   f"(default {_DEFAULT_FLEET_SPEC})")
    pf_calibrate.add_argument("--fleet-seed", type=int,
                              default=fleet_pkg.DEFAULT_FLEET_SEED,
                              help="fleet generation seed for --fleet")
    pf_calibrate.add_argument("--calibration", type=int, default=100,
                              help="calibration architectures per device "
                                   "(default 100)")
    pf_calibrate.add_argument("--seed", type=int, default=0,
                              help="calibration sampling/measurement seed")
    pf_calibrate.add_argument("--output", default="",
                              help="write the transfer-map payload JSON "
                                   "(ProxyTransfer.from_payload reads it "
                                   "back)")
    pf_calibrate.add_argument("--tiny", action="store_true")
    pf_calibrate.set_defaults(func=cmd_fleet_calibrate)

    pf_search = fleet_sub.add_parser(
        "search",
        help="one constrained search against a fleet device (the latency "
             "budget is inverted through the transfer map onto the proxy)")
    pf_search.add_argument("--target", type=float, required=True,
                           help="latency budget on the target device (ms)")
    pf_search.add_argument("--device", required=True,
                           help=_device_help())
    pf_search.add_argument("--calibration", type=int, default=100)
    pf_search.add_argument("--seed", type=int, default=0)
    pf_search.add_argument("--epochs", type=int, default=0,
                           help="override search epochs (0 = paper default)")
    pf_search.add_argument("--output", default="",
                           help="also write the result JSON to this path")
    pf_search.add_argument("--verbose", action="store_true")
    pf_search.add_argument("--tiny", action="store_true")
    pf_search.set_defaults(func=cmd_fleet_search)

    p_trace = sub.add_parser(
        "trace-summary",
        help="summarise a JSON-lines run journal written with --trace")
    p_trace.add_argument("journal", help="path to the .jsonl journal")
    p_trace.add_argument("--ops", action="store_true",
                         help="also print the per-op wall-time profile "
                              "(journals recorded with --profile-ops)")
    p_trace.set_defaults(func=cmd_trace_summary)

    return parser


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="fan the independent runs across N forked "
                             "worker processes, at most one per usable "
                             "CPU; results are bit-identical to --jobs 1 "
                             "(needs os.fork)")


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume/telemetry flags shared by search and sweep."""
    parser.add_argument("--checkpoint-dir", default="",
                        help="write resumable checkpoints to this directory")
    parser.add_argument("--checkpoint-every", type=_positive_int, default=10,
                        help="checkpoint every N epochs (default 10)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the latest checkpoint in "
                             "--checkpoint-dir (starts fresh if none)")
    parser.add_argument("--trace", default="",
                        help="write a JSON-lines run journal to this path "
                             "(read it back with: repro trace-summary)")
    parser.add_argument("--profile-ops", action="store_true",
                        help="record per-op wall time in the journal epochs "
                             "(view with: repro trace-summary --ops)")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - python -m repro.cli
    sys.exit(main())
