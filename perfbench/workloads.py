"""Workload definitions and seeded input generation.

Every input a workload feeds the program is a pure function of the
benchmark seed: the search seeds and targets of the three search
workloads, and for ``serve-mixed`` the archive contents, each client's
operation script and every write batch.  The same seed always yields the
same inputs; another seed yields other inputs.

``paper-search`` and ``stability-grid`` map the benchmark seed onto one of
``REFERENCE_SEEDS`` search seeds, so that every possible input has a stored
bit-exact reference result in ``reference.json`` (regenerate it with
``make_reference.py``); their time and memory do not depend on the seed.
``tiny-supernet`` always searches with ``repro search --tiny``'s default
seed 0: its peak memory follows the sampled paths (163-260 MB over search
seeds 5-8), which would swamp the run-to-run spread the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

WORKLOADS = ("paper-search", "tiny-supernet", "stability-grid", "serve-mixed")
SEARCH_WORKLOADS = WORKLOADS[:3]

#: search seeds covered by ``reference.json``; benchmark seeds map onto them
REFERENCE_SEEDS = 16
PAPER_TARGET_MS = 24.0
TINY_TARGET_MS = 1.0
TINY_SEED = 0
GRID_TARGETS_MS = (20.0, 28.0)
#: 20 of the paper's 90 epochs, so that one run holds three grids
#: (four 1,000-step searches each) and reports a median, not one sample
GRID_EPOCHS = 20

#: serve-mixed sizes (full size / the self-test's reduced size)
SERVE_RECORDS = 20_000
SERVE_OPS_PER_CLIENT = 900
SERVE_CLIENTS = 2
SMALL_SERVE_RECORDS = 1_500
SMALL_SERVE_OPS_PER_CLIENT = 60
#: reduced-size epochs for the self-test's search workloads
SMALL_EPOCHS = {"paper-search": 3, "tiny-supernet": 3, "stability-grid": 2}

#: client operation mix, in operations per 20 (exact counts, shuffled).
#: Synthetic; each share follows a rule (README.md, "serve-mixed mix"):
#: /predict and the reads are 1:1 as in benchmarks/bench_serve.py, the
#: reads split evenly over the three read endpoints, writes are 5% (the
#: read-mostly 95/5 split of YCSB workload B), and /stats is a check probe.
SERVE_MIX = {"predict": 9, "query": 3, "pareto": 3, "nearest": 3,
             "write": 1, "stats": 1}
#: architectures per /predict and per write, and the page size of every
#: read, all as in benchmarks/bench_serve.py
PREDICT_ARCHS = 8
PAGE_ROWS = 20
QUERY_K = 50
QUERY_MAX_OFFSET = 30
#: device alias the archive records and the service are built for
DEVICE = "xavier"
READ_KINDS = ("query", "pareto", "nearest")


def search_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def grid_seeds(seed: int) -> Tuple[int, int]:
    first = search_seed(seed)
    return first, first + 1


def cli_argv(workload: str, seed: int, small: bool = False) -> List[str]:
    """The ``repro`` command line a workload runs (without tracing flags)."""
    if workload == "paper-search":
        argv = ["search", "--target", f"{PAPER_TARGET_MS:g}",
                "--seed", str(search_seed(seed))]
    elif workload == "tiny-supernet":
        argv = ["search", "--tiny", "--target", f"{TINY_TARGET_MS:g}",
                "--seed", str(TINY_SEED)]
    elif workload == "stability-grid":
        return stability_argv(grid_seeds(seed),
                              SMALL_EPOCHS[workload] if small
                              else GRID_EPOCHS)
    else:
        raise ValueError(f"{workload!r} is not a search workload")
    if small:
        argv += ["--epochs", str(SMALL_EPOCHS[workload])]
    return argv


def stability_argv(seeds, epochs: int = GRID_EPOCHS) -> List[str]:
    return ["stability",
            "--targets", ",".join(f"{t:g}" for t in GRID_TARGETS_MS),
            "--seeds", ",".join(str(s) for s in seeds),
            "--epochs", str(epochs), "--jobs", "1"]


def expected_searches(workload: str, seed: int) -> List[Dict[str, float]]:
    """(target, seed) of every search a workload runs, in call order."""
    if workload == "paper-search":
        return [{"target": PAPER_TARGET_MS, "seed": search_seed(seed)}]
    if workload == "tiny-supernet":
        return [{"target": TINY_TARGET_MS, "seed": TINY_SEED}]
    return [{"target": t, "seed": s}
            for t in GRID_TARGETS_MS for s in grid_seeds(seed)]


def reference_key(workload: str, target: float, seed: int) -> str:
    return f"{workload}/{target:g}/{seed}"


# ----------------------------------------------------------------------
# serve-mixed inputs
# ----------------------------------------------------------------------

@dataclass
class ServeInputs:
    """Everything the serve-mixed workload sends, generated from one seed."""

    archive_ops: np.ndarray                 # (N, L) initial genotypes
    archive_metrics: Dict[str, np.ndarray]  # latency_ms, energy_mj, ...
    scripts: List[List[dict]]               # one op list per client
    expected_records: int                   # unique genotypes after writes
    meta: Dict[str, object] = field(default_factory=dict)

    def digest(self) -> str:
        """Content hash of every generated input (self-test identity)."""
        h = hashlib.sha256()
        h.update(self.archive_ops.tobytes())
        for name in sorted(self.archive_metrics):
            h.update(name.encode())
            h.update(self.archive_metrics[name].tobytes())
        h.update(json.dumps(self.scripts, sort_keys=True).encode())
        h.update(str(self.expected_records).encode())
        return h.hexdigest()


def _metrics(rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
    return {
        "latency_ms": rng.uniform(5.0, 60.0, n),
        "energy_mj": rng.uniform(20.0, 900.0, n),
        "macs_m": rng.uniform(40.0, 600.0, n),
        "score": rng.uniform(40.0, 82.0, n),
    }


def serve_inputs(seed: int, num_layers: int, num_operators: int,
                 small: bool = False) -> ServeInputs:
    """Archive, per-client operation scripts and write batches for a seed."""
    records = SMALL_SERVE_RECORDS if small else SERVE_RECORDS
    per_client = SMALL_SERVE_OPS_PER_CLIENT if small \
        else SERVE_OPS_PER_CLIENT
    rng = np.random.default_rng([seed, 0x5E12E])
    ops = rng.integers(0, num_operators, size=(records, num_layers))
    archive_metrics = _metrics(rng, records)
    seen = {tuple(row) for row in ops.tolist()}

    unit = sum(SERVE_MIX.values())
    if per_client % unit:
        raise ValueError(f"{per_client} operations per client is not a "
                         f"whole number of {unit}-operation mixes")
    kinds = [kind for kind, count in SERVE_MIX.items() for _ in range(count)]

    def archs(n):
        return rng.integers(0, num_operators, size=(n, num_layers))

    scripts: List[List[dict]] = []
    for _ in range(SERVE_CLIENTS):
        script_kinds = kinds * (per_client // unit)
        rng.shuffle(script_kinds)
        script = []
        for kind in script_kinds:
            if kind == "predict":
                body = {"archs": archs(PREDICT_ARCHS).tolist()}
            elif kind == "query":
                body = {"k": QUERY_K, "limit": PAGE_ROWS,
                        "offset": int(rng.integers(0, QUERY_MAX_OFFSET))}
            elif kind == "pareto":
                body = {"limit": PAGE_ROWS}
            elif kind == "nearest":
                body = {"arch": archs(1)[0].tolist(), "k": PAGE_ROWS,
                        "limit": PAGE_ROWS}
            elif kind == "stats":
                body = None
            else:  # an in-process write of one /predict request's worth
                batch = archs(PREDICT_ARCHS)
                seen.update(tuple(row) for row in batch.tolist())
                body = {"ops": batch.tolist(),
                        **{k: v.tolist() for k, v in
                           _metrics(rng, PREDICT_ARCHS).items()}}
            script.append({"kind": kind, "body": body})
        scripts.append(script)
    return ServeInputs(archive_ops=ops, archive_metrics=archive_metrics,
                       scripts=scripts, expected_records=len(seen),
                       meta={"records": records, "ops_per_client": per_client,
                             "clients": SERVE_CLIENTS})


def build_archive(path: str, inputs: ServeInputs, space, device: str) -> None:
    """Write the initial archive through the library and compact it."""
    from repro.archive.store import ArchitectureArchive

    os.makedirs(os.path.dirname(path), exist_ok=True)
    archive = ArchitectureArchive(path, space=space)
    try:
        chunk = 5_000
        for start in range(0, len(inputs.archive_ops), chunk):
            stop = start + chunk
            archive.add_population(
                inputs.archive_ops[start:stop], device=device,
                **{k: v[start:stop]
                   for k, v in inputs.archive_metrics.items()},
                engine="perfbench", seed=0)
        archive.compact()
    finally:
        archive.close()
