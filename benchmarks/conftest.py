"""Shared fixtures for the benchmark suite.

``ctx`` loads the full-space experiment context (the fitted 10k-campaign
latency predictor is cached on disk, so only the first-ever run pays the
campaign).  ``lightnets`` caches one LightNAS search per Table-2 target, so
the many benchmarks that consume searched architectures (Tables 2–4,
Figures 6 and 9) do not re-run identical searches.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.lightnas import LightNASConfig, run_grid
from repro.experiments.reporting import results_dir
from repro.experiments.shared import full_context
from repro.search_space.space import Architecture

TABLE2_TARGETS = (20.0, 22.0, 24.0, 26.0, 28.0, 30.0)
SEARCH_SEED = 1


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=1,
        help="fan the Fig. 3 λ grid and the Fig. 7 seed grid across N "
             "forked worker processes, each running its share of the grid "
             "as one stacked α-step (the whole grid at --jobs 1); the "
             "recorded results are bit-identical either way")


@pytest.fixture(scope="session")
def jobs(request):
    """Worker count for RunFleet-backed benchmark loops (default 1)."""
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def ctx():
    return full_context()


@pytest.fixture(scope="session")
def lightnets(ctx):
    """One searched architecture per Table-2 latency target (disk-cached)."""
    cache_file = os.path.join(results_dir(), "cache",
                              f"lightnets_seed{SEARCH_SEED}.json")
    if os.path.exists(cache_file):
        with open(cache_file) as handle:
            payload = json.load(handle)
        return {float(k): Architecture(tuple(v)) for k, v in payload.items()}

    configs = [LightNASConfig.paper(target, space=ctx.space, seed=SEARCH_SEED)
               for target in TABLE2_TARGETS]
    results = run_grid(configs, ctx.latency_predictor).values()
    searched = {target: result.architecture
                for target, result in zip(TABLE2_TARGETS, results)}
    os.makedirs(os.path.dirname(cache_file), exist_ok=True)
    with open(cache_file, "w") as handle:
        json.dump({str(k): list(v.op_indices) for k, v in searched.items()},
                  handle)
    return searched


def emit(name: str, text: str) -> None:
    """Print a benchmark table and persist it under benchmarks/results/."""
    print("\n" + text)
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
