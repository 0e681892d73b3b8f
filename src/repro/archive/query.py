"""Vectorized query engine over the archive's numpy index.

All queries operate on the stacked :class:`~repro.archive.store.ArchiveIndex`
arrays — no Python loop over records:

* :func:`top_k` — best-k under latency/energy/MACs/params budgets,
* :func:`pareto_rows` — the per-device cost/score Pareto frontier
  (delegating to :func:`repro.eval.pareto.pareto_mask`),
* :func:`hamming_neighbors` — nearest genotypes by one-hot Hamming
  distance, counted over the index's layer-major ``layers`` block (one
  contiguous small-int comparison per layer),
* :func:`describe_rows` — JSON-ready result rows for the CLI / service,
  gathered for the whole page at once.

No read sorts the whole archive: :func:`top_k` and
:func:`hamming_neighbors` select their ``k`` rows with a partition and sort
only the rows that tie or beat the ``k``-th value, and the Pareto sweep
first drops the rows a sampled staircase strictly dominates.  Each returns
exactly what a full stable sort would, ties included.  No read copies the
archive either: the index it runs on is a set of read-only views that
later writes leave unchanged (see :class:`~repro.archive.store._LiveIndex`),
and :func:`describe_rows` touches only the rows of the page it returns.

Budgets reference metric names: the architecture-global ``macs_m`` /
``params_m``, or the per-device ``latency_ms`` / ``energy_mj`` /
``measured_latency_ms`` / ``measured_energy_mj`` (which require a device).
Rows missing a budgeted or optimised metric are excluded — an unknown cost
cannot be certified to fit a budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.pareto import pareto_mask
from .store import DEVICE_COST_METRICS, GLOBAL_METRICS, ArchiveIndex

__all__ = ["top_k", "pareto_rows", "hamming_neighbors", "describe_rows",
           "paginate", "QUERY_METRICS"]

#: every metric name a query may reference
QUERY_METRICS = GLOBAL_METRICS + DEVICE_COST_METRICS


def _column(index: ArchiveIndex, metric: str,
            device: Optional[str]) -> np.ndarray:
    if metric not in QUERY_METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {QUERY_METRICS}")
    return index.column(metric, device)


def _budget_mask(index: ArchiveIndex, budgets: Dict[str, float],
                 device: Optional[str]) -> np.ndarray:
    mask = np.ones(len(index), dtype=bool)
    for metric, limit in budgets.items():
        column = _column(index, metric, device)
        mask &= np.isfinite(column) & (column <= float(limit))
    return mask


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` without sorting them all.

    The ``k``-th smallest value bounds the answer: only rows at or below it
    can be among the first ``k``, and stable-sorting just those (kept in
    row order) ranks them exactly as the full sort would, ties included.
    ``values`` must hold no NaN.
    """
    if k >= len(values):
        return np.argsort(values, kind="stable")
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    kth = np.partition(values, k - 1)[k - 1]
    candidates = np.flatnonzero(values <= kth)
    return candidates[np.argsort(values[candidates], kind="stable")[:k]]


def top_k(index: ArchiveIndex, k: int, *,
          objective: str = "score",
          device: Optional[str] = None,
          budgets: Optional[Dict[str, float]] = None) -> np.ndarray:
    """Row indices of the best ``k`` archived architectures.

    ``objective="score"`` maximises the accuracy-proxy score; any cost
    metric name minimises it.  Ties break by row order (stable), so results
    are deterministic across reopens of the same archive.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    values = _column(index, objective, device)
    feasible = np.isfinite(values) & _budget_mask(index, budgets or {},
                                                  device)
    ranked = values.copy()
    if objective == "score":
        ranked = -ranked
    ranked[~feasible] = np.inf
    return _smallest(ranked, min(k, int(feasible.sum())))


def pareto_rows(index: ArchiveIndex, *,
                device: str,
                cost_metric: str = "latency_ms",
                quality: str = "score") -> np.ndarray:
    """Rows on the per-device (cost ↓, quality ↑) Pareto frontier.

    Returned sorted by ascending cost.  Rows missing either coordinate are
    excluded before the sweep.
    """
    costs = _column(index, cost_metric, device)
    qualities = _column(index, quality, device)
    valid = np.nonzero(np.isfinite(costs) & np.isfinite(qualities))[0]
    if valid.size == 0:
        return valid
    mask = pareto_mask(costs[valid], qualities[valid])
    front = valid[mask]
    return front[np.argsort(costs[front], kind="stable")]


def hamming_neighbors(index: ArchiveIndex, op_indices: Sequence[int],
                      k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` archived genotypes nearest to a query architecture.

    Distance is the Hamming distance between one-hot encodings divided by
    two — i.e. the number of layers whose operator differs — counted over
    the index's layer-major ``layers`` block: one contiguous small-int
    comparison per layer, no per-record loop.  Returns ``(rows,
    distances)`` sorted by ascending distance (row order breaks ties),
    distances as int64.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    query = np.asarray(op_indices, dtype=np.int64)
    if query.shape != (index.ops.shape[1],):
        raise ValueError(
            f"query architecture has {query.size} layers, archive holds "
            f"{index.ops.shape[1]}-layer genotypes")
    counts = np.zeros(len(index), dtype=np.min_scalar_type(query.size))
    for layer, op in zip(index.layers, query.tolist()):
        counts += layer != op
    # partitioning int64 is several times faster than uint8
    distances = counts.astype(np.int64)
    order = _smallest(distances, k)
    return order, distances[order]


def paginate(rows: np.ndarray, offset: int = 0,
             limit: Optional[int] = None,
             ) -> Tuple[np.ndarray, Optional[int], int]:
    """Slice a result row set into one page.

    Selection (top-k ranking, Pareto sweep, neighbour sort) is vectorized
    and cheap; *serialisation* is what scales with the result count, so
    pagination slices the already-ranked ``rows`` and only the page is ever
    described to JSON.  Returns ``(page, next_offset, total)`` where
    ``next_offset`` is ``None`` on the last page.  Walking pages with the
    returned cursors reassembles exactly the unpaginated row set (the
    ranking is deterministic, so cursors are stable across requests as long
    as no records are appended in between).
    """
    rows = np.asarray(rows)
    offset = int(offset)
    if offset < 0:
        raise ValueError("offset must be non-negative")
    total = len(rows)
    if limit is None:
        page = rows[offset:] if offset else rows
        return page, None, total
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    page = rows[offset:offset + limit]
    next_offset = offset + limit if offset + limit < total else None
    return page, next_offset, total


def describe_rows(index: ArchiveIndex, rows: np.ndarray,
                  device: Optional[str] = None) -> List[dict]:
    """JSON-ready dicts for selected rows (CLI / service responses).

    The page's genotypes, global metrics and cost cells are each gathered
    with one fancy index and converted with one ``tolist()``; the dicts
    are then built from Python lists.  Non-finite values are omitted.
    """
    columns = list(range(len(index.devices)))
    if device:
        try:
            columns = [index.device_position(device)]
        except ValueError:  # the server's default device may hold no costs
            columns = []
    rows = np.asarray(rows, dtype=np.int64)
    names = [index.devices[d] for d in columns]
    ops = index.ops[rows].tolist()
    metrics = np.stack([getattr(index, metric)[rows]
                        for metric in GLOBAL_METRICS], axis=1)
    cost = index.cost[np.ix_(rows, columns)]
    out: List[dict] = []
    for genotype, row, values, finite, cells, cells_finite in zip(
            ops, rows.tolist(), metrics.tolist(),
            np.isfinite(metrics).tolist(), cost.tolist(),
            np.isfinite(cost).tolist()):
        entry: Dict[str, object] = {"op_indices": genotype,
                                    "key": index.keys[row]}
        for metric, value, ok in zip(GLOBAL_METRICS, values, finite):
            if ok:
                entry[metric] = value
        for name, device_cells, device_finite in zip(names, cells,
                                                     cells_finite):
            device_metrics = {
                metric: value for metric, value, ok in zip(
                    DEVICE_COST_METRICS, device_cells, device_finite)
                if ok}
            if device_metrics:
                entry.setdefault("devices", {})[name] = device_metrics
        out.append(entry)
    return out
