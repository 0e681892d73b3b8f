"""Accuracy/latency Pareto-front analysis.

Table 2 and Figure 9 are, structurally, claims about *Pareto dominance*:
the searched LightNets should sit on (or define) the accuracy-latency
frontier, with every baseline on or behind it.  This module provides the
vocabulary to state and test that precisely:

* :func:`pareto_front` — the non-dominated subset (maximise quality,
  minimise cost);
* :func:`dominates` — the strict-domination predicate;
* :func:`front_gap` — how far a point is behind a front (0 for points on
  or above it), used to assert "LightNets define the frontier" in the
  benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["FrontPoint", "dominates", "pareto_mask", "pareto_front",
           "front_gap"]


@dataclass(frozen=True)
class FrontPoint:
    """One candidate: a cost to minimise and a quality to maximise."""

    cost: float        # e.g. latency in ms
    quality: float     # e.g. top-1 %
    name: str = ""


def dominates(a: FrontPoint, b: FrontPoint) -> bool:
    """True iff ``a`` is at least as good in both axes and better in one."""
    return (a.cost <= b.cost and a.quality >= b.quality
            and (a.cost < b.cost or a.quality > b.quality))


#: below this many points the prefilter costs more than it saves
_PREFILTER_MIN_POINTS = 512
#: the prefilter's pivots come from the front of about this many points
_PIVOT_SAMPLE = 256
#: at most this many pivots, spread evenly along the sample's front
_MAX_PIVOTS = 64


def _sweep(costs: np.ndarray, qualities: np.ndarray) -> np.ndarray:
    """Front indices of non-empty NaN-free input, in ascending cost order."""
    order = np.lexsort((-qualities, costs))
    sorted_quality = qualities[order]
    # the first point in (cost asc, quality desc) order is always on the
    # front; every later one must beat the best quality seen before it
    on_front = np.empty(len(order), dtype=bool)
    on_front[0] = True
    on_front[1:] = sorted_quality[1:] > np.maximum.accumulate(
        sorted_quality)[:-1]
    return order[on_front]


def _prefilter(costs: np.ndarray, qualities: np.ndarray) -> np.ndarray:
    """Indices of the points no pivot beats, in input order.

    The pivots are the front of a strided sample.  A point with a pivot
    that is strictly cheaper *and* strictly better is strictly dominated,
    so it is off the front; by transitivity that pivot (or a point that
    dominates it) also dominates everything the dropped point did, so
    dropping it changes no other point's fate, duplicates included.  Any
    pivot set is therefore correct; a good one just drops more.
    """
    stride = len(costs) // _PIVOT_SAMPLE
    sample_costs, sample_qualities = costs[::stride], qualities[::stride]
    pivots = _sweep(sample_costs, sample_qualities)
    if len(pivots) > _MAX_PIVOTS:
        pivots = pivots[np.linspace(0, len(pivots) - 1,
                                    _MAX_PIVOTS).astype(np.int64)]
    beaten = np.zeros(len(costs), dtype=bool)
    for cost, quality in zip(sample_costs[pivots].tolist(),
                             sample_qualities[pivots].tolist()):
        beaten |= (costs > cost) & (qualities < quality)
    return np.flatnonzero(~beaten)


def _front(costs: np.ndarray, qualities: np.ndarray) -> np.ndarray:
    """Front indices of non-empty NaN-free input."""
    if len(costs) < _PREFILTER_MIN_POINTS:
        return _sweep(costs, qualities)
    rows = _prefilter(costs, qualities)
    return rows[_sweep(costs[rows], qualities[rows])]


def pareto_mask(costs: np.ndarray, qualities: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated subset of a population.

    A point is on the front iff no other point strictly dominates it (see
    :func:`dominates`); of several points with identical coordinates only
    the first (in input order) is kept, matching :func:`pareto_front`.  A
    point with a NaN coordinate compares false against everything, so it
    neither dominates nor is dominated: it is always kept.

    Vectorized sweep: sort by (cost asc, quality desc) — a point is on the
    front iff its quality strictly exceeds every cheaper-or-equal point seen
    before it.  Above a few hundred points a staircase prefilter first
    drops every point that the front of a strided sample strictly beats in
    both coordinates, so the sort only sees the points near the front.
    ``O(N log N)`` with no per-point Python loop, so population-scale
    sweeps (Figure 9, Table 2, ``repro serve``'s ``/pareto``) stay cheap.
    """
    costs = np.asarray(costs, dtype=np.float64)
    qualities = np.asarray(qualities, dtype=np.float64)
    if costs.shape != qualities.shape or costs.ndim != 1:
        raise ValueError("costs and qualities must be equal-length 1-D arrays")
    mask = np.isnan(costs) | np.isnan(qualities)
    if mask.any():
        rows = np.flatnonzero(~mask)
        if len(rows):
            mask[rows[_front(costs[rows], qualities[rows])]] = True
    elif len(costs):
        mask[_front(costs, qualities)] = True
    return mask


def pareto_front(points: Sequence[FrontPoint]) -> List[FrontPoint]:
    """The non-dominated subset, sorted by ascending cost.

    Duplicate-coordinate points are kept once (the first occurrence wins).
    """
    if not points:
        return []
    costs = np.array([p.cost for p in points], dtype=np.float64)
    qualities = np.array([p.quality for p in points], dtype=np.float64)
    keep = np.nonzero(pareto_mask(costs, qualities))[0]
    return [points[i] for i in keep[np.argsort(costs[keep], kind="stable")]]


def front_gap(point: FrontPoint, front: Sequence[FrontPoint]) -> float:
    """Quality gap between ``point`` and the front at the same cost budget.

    The front's quality at a cost ``c`` is the best quality among front
    points with cost ≤ ``c`` (a step function).  Returns
    ``max(0, front(c) − point.quality)``; 0 means the point matches or
    extends the front at its budget.
    """
    eligible = [p.quality for p in front if p.cost <= point.cost]
    if not eligible:
        return 0.0
    return float(max(0.0, max(eligible) - point.quality))
