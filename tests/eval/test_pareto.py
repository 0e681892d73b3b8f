"""Tests of the Pareto-front analysis utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.pareto import (
    FrontPoint,
    dominates,
    front_gap,
    pareto_front,
    pareto_mask,
)
from repro.search_space.space import Architecture


P = FrontPoint

#: Operator indices of the LightNets searched at 20, 22, ..., 30 ms.
TABLE2_LIGHTNETS = (
    (2, 0, 0, 0, 4, 4, 4, 4, 5, 1, 3, 1, 1, 1, 1, 1, 5, 1, 3, 1, 3),
    (2, 1, 0, 1, 4, 4, 4, 4, 5, 1, 3, 1, 3, 1, 1, 1, 5, 1, 3, 1, 3),
    (1, 1, 1, 1, 5, 4, 4, 4, 5, 1, 3, 1, 3, 1, 1, 1, 5, 5, 3, 3, 3),
    (1, 1, 1, 1, 5, 5, 5, 4, 5, 1, 3, 1, 3, 1, 1, 1, 5, 5, 3, 5, 5),
    (4, 1, 1, 1, 5, 5, 5, 5, 5, 1, 1, 3, 3, 1, 1, 1, 5, 5, 3, 5, 3),
    (4, 1, 1, 2, 5, 5, 5, 5, 5, 5, 3, 3, 3, 1, 1, 1, 5, 5, 3, 5, 5),
)


class TestDominates:
    def test_strictly_better(self):
        assert dominates(P(1.0, 10.0), P(2.0, 5.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(P(1.0, 10.0), P(1.0, 10.0))

    def test_better_one_axis_equal_other(self):
        assert dominates(P(1.0, 10.0), P(1.0, 9.0))
        assert dominates(P(1.0, 10.0), P(2.0, 10.0))

    def test_tradeoff_is_incomparable(self):
        a, b = P(1.0, 5.0), P(2.0, 10.0)
        assert not dominates(a, b) and not dominates(b, a)


class TestParetoFront:
    def test_empty(self):
        assert pareto_front([]) == []

    def test_single(self):
        assert pareto_front([P(1, 1)]) == [P(1, 1)]

    def test_removes_dominated(self):
        points = [P(1, 10), P(2, 9), P(3, 12), P(4, 11)]
        front = pareto_front(points)
        assert front == [P(1, 10), P(3, 12)]

    def test_sorted_by_cost(self):
        points = [P(3, 12), P(1, 10), P(2, 11)]
        front = pareto_front(points)
        costs = [p.cost for p in front]
        assert costs == sorted(costs)

    def test_front_qualities_increase(self):
        rng = np.random.default_rng(0)
        points = [P(float(c), float(q))
                  for c, q in rng.uniform(0, 10, size=(50, 2))]
        front = pareto_front(points)
        qualities = [p.quality for p in front]
        assert qualities == sorted(qualities)

    def test_all_points_dominated_by_front(self):
        rng = np.random.default_rng(1)
        points = [P(float(c), float(q))
                  for c, q in rng.uniform(0, 10, size=(40, 2))]
        front = pareto_front(points)
        for point in points:
            assert point in front or any(dominates(f, point) for f in front)


class TestFrontGap:
    def test_point_on_front(self):
        front = pareto_front([P(1, 10), P(3, 12)])
        assert front_gap(P(3, 12), front) == 0.0

    def test_point_behind_front(self):
        front = pareto_front([P(1, 10), P(3, 12)])
        assert front_gap(P(3, 11), front) == pytest.approx(1.0)

    def test_point_cheaper_than_front(self):
        front = pareto_front([P(5, 10)])
        assert front_gap(P(1, 2), front) == 0.0

    def test_point_extends_front(self):
        front = pareto_front([P(1, 10)])
        assert front_gap(P(2, 15), front) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.floats(0, 100, allow_nan=False)),
                min_size=1, max_size=30))
def test_front_is_mutually_nondominated_property(coords):
    points = [P(c, q) for c, q in coords]
    front = pareto_front(points)
    for a in front:
        for b in front:
            if a is not b:
                assert not dominates(a, b)


class TestOnTable2Data:
    def test_lightnets_define_the_frontier(self, full_space, full_oracle,
                                           full_latency_model):
        """The LightNets this pipeline searched for Table 2 (surrogate
        mode, seed 1, paper hyper-parameters, 20-30 ms) must all sit on the
        accuracy/latency front formed together with the uniform MobileNetV2
        stack and the space's corner points."""
        candidates = {"mnv2": Architecture((1,) * 21),
                      "small": Architecture((0,) * 21),
                      "large": Architecture((5,) * 21)}
        candidates.update({f"light{i}": Architecture(ops)
                           for i, ops in enumerate(TABLE2_LIGHTNETS)})
        points = [
            P(full_latency_model.latency_ms(arch),
              full_oracle.evaluate(arch).top1, name)
            for name, arch in candidates.items()
        ]
        front = pareto_front(points)
        for point in points:
            if point.name.startswith("light"):
                assert front_gap(point, front) < 0.25, point


class TestParetoMask:
    def test_empty(self):
        assert pareto_mask(np.zeros(0), np.zeros(0)).shape == (0,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pareto_mask(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            pareto_mask(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_duplicate_keeps_first_occurrence(self):
        mask = pareto_mask(np.array([1.0, 1.0, 2.0]), np.array([5.0, 5.0, 6.0]))
        assert mask.tolist() == [True, False, True]

    def test_agrees_with_pareto_front(self):
        rng = np.random.default_rng(0)
        costs, qualities = rng.random(200) * 10, rng.random(200) * 10
        points = [P(c, q) for c, q in zip(costs, qualities)]
        front = {(p.cost, p.quality) for p in pareto_front(points)}
        kept = {(costs[i], qualities[i])
                for i in np.nonzero(pareto_mask(costs, qualities))[0]}
        assert kept == front


# ----------------------------------------------------------------------
# Exactness of the (prefiltered) sweep against the O(N²) definition
# ----------------------------------------------------------------------

def _brute_force_mask(costs, qualities):
    """The definition: not strictly dominated by any point, and the first
    of its exact duplicates.  NaN compares false, so a NaN point is
    neither dominated nor a duplicate."""
    c_j, c_i = costs[:, None], costs[None, :]
    q_j, q_i = qualities[:, None], qualities[None, :]
    dominated = ((c_j <= c_i) & (q_j >= q_i)
                 & ((c_j < c_i) | (q_j > q_i))).any(axis=0)
    duplicate = np.triu((c_j == c_i) & (q_j == q_i), k=1).any(axis=0)
    return ~dominated & ~duplicate


_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]
_COORDS = st.one_of(st.sampled_from(_SPECIALS), st.floats(0, 50))


def _layout(rng, kind, n, palette):
    costs = rng.uniform(0, 10, n)
    if kind == "uniform":
        qualities = rng.uniform(0, 10, n)
    elif kind == "correlated":      # a large front: the pivot cap binds
        qualities = 0.5 * costs + rng.normal(0, 0.05, n)
    elif kind == "front":           # nearly all on the front
        qualities = costs + rng.normal(0, 1e-3, n)
    else:                           # heavy ties from a small palette
        costs = rng.choice(palette, n)
        qualities = rng.choice(palette, n)
    return costs, qualities


@st.composite
def _large_populations(draw):
    """400–1300 points, on both sides of the prefilter threshold."""
    n = draw(st.integers(400, 1300))
    kind = draw(st.sampled_from(["uniform", "correlated", "front", "ties"]))
    palette = draw(st.lists(_COORDS, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    costs, qualities = _layout(rng, kind, n, palette)
    if draw(st.booleans()):         # round for exact duplicates
        costs, qualities = np.round(costs, 1), np.round(qualities, 1)
    for column in (costs, qualities):   # sprinkle ±0.0, ±inf and NaN
        hits = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.2]))
        column[hits] = rng.choice(_SPECIALS, int(hits.sum()))
    return costs, qualities


_SMALL_POPULATIONS = st.lists(st.tuples(_COORDS, _COORDS),
                              max_size=40).map(
    lambda coords: (np.array([c for c, _ in coords], dtype=np.float64),
                    np.array([q for _, q in coords], dtype=np.float64)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(_SMALL_POPULATIONS, _large_populations()))
def test_pareto_mask_matches_bruteforce_property(population):
    """The vectorized sweep, prefiltered or not, agrees with the O(N²)
    domination scan (first-occurrence tie-breaking on duplicates), with
    heavy ties, ±0.0, ±inf and NaN."""
    costs, qualities = population
    np.testing.assert_array_equal(pareto_mask(costs, qualities),
                                  _brute_force_mask(costs, qualities))


class TestPrefilter:
    """What the prefilter drops, and the edge cases it must keep."""

    def test_drops_most_points_of_a_uniform_cloud(self):
        from repro.eval.pareto import _prefilter
        rng = np.random.default_rng(4)
        costs, qualities = rng.random(20_000), rng.random(20_000)
        assert len(_prefilter(costs, qualities)) < 1_000

    def test_nan_and_minus_inf_quality(self):
        mask = pareto_mask(np.array([1.0, 2.0, np.nan, 3.0]),
                           np.array([-np.inf, np.nan, 1.0, 2.0]))
        assert mask.tolist() == [True, True, True, True]
        assert pareto_mask(np.array([1.0, 2.0]),
                           np.array([-np.inf, -np.inf])).tolist() == [
            True, False]

    def test_pivot_cap_binds_on_a_large_front(self):
        from repro.eval.pareto import (_MAX_PIVOTS, _PIVOT_SAMPLE,
                                       _prefilter, _sweep)
        costs, qualities = _layout(np.random.default_rng(3), "correlated",
                                   2000, [])
        stride = len(costs) // _PIVOT_SAMPLE
        assert len(_sweep(costs[::stride], qualities[::stride])) > _MAX_PIVOTS
        kept = _prefilter(costs, qualities)
        assert len(kept) < len(costs)
        assert set(np.flatnonzero(_brute_force_mask(costs, qualities))) <= \
            set(kept.tolist())
