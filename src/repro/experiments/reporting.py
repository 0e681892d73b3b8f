"""Reporting helpers shared by the benchmark harness.

Plain-text table rendering (the benchmarks print the same rows the paper's
tables report), simple ASCII series plots for trajectory figures, and JSON
artifact persistence under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["render_table", "ascii_series", "save_json", "results_dir"]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def ascii_series(values: Sequence[float], label: str = "") -> str:
    """Down-sampled 60 × 10 ASCII line plot of one series (for trajectory
    figures)."""
    width, height = 60, 10
    values = list(values)
    if not values:
        return f"{label}: (empty)"
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    grid = [[" "] * len(values) for _ in range(height)]
    for x, v in enumerate(values):
        y = int((v - lo) / span * (height - 1))
        grid[height - 1 - y][x] = "*"
    lines = [f"{label}  (min {lo:.3g}, max {hi:.3g})"]
    lines.extend("".join(row) for row in grid)
    return "\n".join(lines)


def results_dir() -> str:
    """Directory for benchmark artifacts (created on demand)."""
    path = os.environ.get(
        "REPRO_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "benchmarks", "results"),
    )
    os.makedirs(path, exist_ok=True)
    return path


def save_json(name: str, payload: Dict) -> str:
    """Persist a benchmark artifact; returns the file path."""
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    return path
