"""Regenerate ``reference.json``: the bit-exact result of every search the
search workloads can run.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/make_reference.py

Each search runs through the same ``repro`` command line as the workload
(``workloads.cli_argv``), in this one process; a search's result does not
depend on what ran before it in the process, which the benchmark confirms
on every run by checking fresh processes against this table.  Only
regenerate it when a change is meant to alter search results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads as wl
from child import Marks, install_boundaries

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    import repro.cli as cli

    marks = Marks(None, setup_only=False)
    install_boundaries(marks)
    seeds = range(wl.REFERENCE_SEEDS)
    runs = [("paper-search", wl.cli_argv("paper-search", s)) for s in seeds]
    runs.append(("tiny-supernet", wl.cli_argv("tiny-supernet", 0)))
    # one grid covering every (target, seed) pair the stability grids use
    grid_seeds = sorted({g for s in seeds for g in wl.grid_seeds(s)})
    runs.append(("stability-grid", wl.stability_argv(grid_seeds)))

    table = {}
    for workload, argv in runs:
        marks.searches.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv):
                raise SystemExit(f"repro {' '.join(argv)} failed")
        for search in marks.searches:
            key = wl.reference_key(workload, search["target"],
                                   search["seed"])
            table[key] = {f: search[f] for f in ("arch", "predicted",
                                                 "lambda")}
        print(f"{' '.join(argv)}: {len(marks.searches)} searches",
              file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(sorted(table.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
