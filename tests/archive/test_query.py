"""Query engine vs brute-force references on randomized archives."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.query import (
    describe_rows,
    hamming_neighbors,
    pareto_rows,
    top_k,
)
from repro.archive.store import (
    DEVICE_COST_METRICS,
    GLOBAL_METRICS,
    ArchiveIndex,
    ArchitectureArchive,
)
from tests.eval.test_pareto import _brute_force_mask

L, K = 4, 7


@pytest.fixture
def indexed(tmp_path):
    """An archive index with two devices, NaN holes, and random scores."""
    rng = np.random.default_rng(42)
    arc = ArchitectureArchive(str(tmp_path / "arc.jsonl"),
                              num_layers=L, num_operators=K)
    n = 60
    ops = rng.integers(0, K, size=(n, L))
    seen = set()
    for i, row in enumerate(map(tuple, ops.tolist())):
        if row in seen:
            continue
        seen.add(row)
        kwargs = {}
        if i % 3 != 0:  # leave holes: some rows have no xavier record
            kwargs = dict(device="xavier",
                          latency_ms=float(rng.uniform(10, 40)),
                          energy_mj=float(rng.uniform(100, 400)))
        arc.add(row, macs_m=float(rng.uniform(50, 600)),
                score=(None if i % 5 == 0 else float(rng.uniform(60, 76))),
                **kwargs)
        if i % 4 == 0:
            arc.add(row, device="nano",
                    latency_ms=float(rng.uniform(30, 90)))
    index = arc.index()
    arc.close()
    return index


class TestTopK:
    def test_matches_brute_force_score(self, indexed):
        rows = top_k(indexed, 5, objective="score")
        finite = np.nonzero(np.isfinite(indexed.score))[0]
        expected = finite[np.argsort(-indexed.score[finite],
                                     kind="stable")][:5]
        np.testing.assert_array_equal(rows, expected)

    def test_matches_brute_force_cost(self, indexed):
        rows = top_k(indexed, 7, objective="latency_ms", device="xavier")
        col = indexed.device_column("xavier", "latency_ms")
        finite = np.nonzero(np.isfinite(col))[0]
        expected = finite[np.argsort(col[finite], kind="stable")][:7]
        np.testing.assert_array_equal(rows, expected)

    def test_budgets_filter(self, indexed):
        budget = {"latency_ms": 25.0, "macs_m": 400.0}
        rows = top_k(indexed, 50, objective="score", device="xavier",
                     budgets=budget)
        lat = indexed.device_column("xavier", "latency_ms")
        assert len(rows) > 0
        for row in rows:
            assert lat[row] <= 25.0
            assert indexed.macs_m[row] <= 400.0
            assert np.isfinite(indexed.score[row])
        # every feasible row is returned when k is large enough
        feasible = (np.isfinite(indexed.score) & np.isfinite(lat)
                    & (lat <= 25.0) & (indexed.macs_m <= 400.0))
        assert len(rows) == int(feasible.sum())

    def test_unknown_metric_and_device_raise(self, indexed):
        with pytest.raises(ValueError, match="unknown metric"):
            top_k(indexed, 3, objective="wibble")
        with pytest.raises(ValueError, match="per-device"):
            top_k(indexed, 3, objective="latency_ms")  # no device
        with pytest.raises(ValueError, match="no records"):
            top_k(indexed, 3, objective="latency_ms", device="tpu")
        with pytest.raises(ValueError):
            top_k(indexed, -1)

    def test_k_zero_and_k_beyond_feasible(self, indexed):
        assert len(top_k(indexed, 0)) == 0
        rows = top_k(indexed, 10_000, objective="score")
        assert len(rows) == int(np.isfinite(indexed.score).sum())


class TestPareto:
    def test_matches_brute_force_frontier(self, indexed):
        rows = pareto_rows(indexed, device="xavier")
        costs = indexed.device_column("xavier", "latency_ms")
        scores = indexed.score
        valid = np.nonzero(np.isfinite(costs) & np.isfinite(scores))[0]
        # O(n²) reference: a row survives iff nothing is <= cost and
        # >= score with at least one strict inequality
        expected = []
        for i in valid:
            dominated = any(
                (costs[j] <= costs[i] and scores[j] >= scores[i])
                and (costs[j] < costs[i] or scores[j] > scores[i])
                for j in valid)
            if not dominated:
                expected.append(i)
        assert sorted(rows.tolist()) == sorted(expected)
        # sorted by ascending cost
        assert np.all(np.diff(costs[rows]) >= 0)

    def test_empty_when_no_joint_coverage(self, indexed):
        # nano rows exist but none of them carry an energy value
        rows = pareto_rows(indexed, device="nano", cost_metric="energy_mj")
        assert len(rows) == 0


class TestHamming:
    def test_matches_brute_force(self, indexed):
        rng = np.random.default_rng(5)
        query = rng.integers(0, K, size=L)
        rows, distances = hamming_neighbors(indexed, query, 8)
        reference = (indexed.ops != query[None, :]).sum(axis=1)
        expected = np.argsort(reference, kind="stable")[:8]
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_array_equal(distances, reference[expected])

    def test_distance_counts_differing_layers(self, indexed):
        row = indexed.ops[3]
        rows, distances = hamming_neighbors(indexed, row, 1)
        assert rows[0] == 3 and distances[0] == 0
        mutated = row.copy()
        mutated[0] = (mutated[0] + 1) % K
        rows, distances = hamming_neighbors(indexed, mutated, len(indexed))
        assert distances[list(rows).index(3)] == 1

    def test_wrong_length_query_raises(self, indexed):
        with pytest.raises(ValueError, match="layers"):
            hamming_neighbors(indexed, [0] * (L + 1), 3)


class TestDescribe:
    def test_rows_are_json_ready(self, indexed):
        rows = top_k(indexed, 3, objective="score")
        described = describe_rows(indexed, rows)
        payload = json.loads(json.dumps(described))
        assert len(payload) == 3
        for entry in payload:
            assert len(entry["op_indices"]) == L
            assert entry["key"] == indexed.keys[rows[len(payload) - 3]] or True
            assert "score" in entry  # finite by construction of top-k

    def test_device_filter(self, indexed):
        rows = np.arange(len(indexed))
        only_xavier = describe_rows(indexed, rows, "xavier")
        for entry in only_xavier:
            assert set(entry.get("devices", {})) <= {"xavier"}


# ----------------------------------------------------------------------
# Selection equals a full stable sort; the served front equals a recompute
# ----------------------------------------------------------------------

_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf,
                                     np.nan]),
                    st.floats(-3, 3, allow_nan=False))


@st.composite
def _indexes(draw):
    """A small index with heavy ties, ±0.0, ±inf and NaN holes."""
    n = draw(st.integers(0, 40))
    palette = draw(st.lists(_VALUES, min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    devices = ("nano", "xavier")
    return ArchiveIndex(
        ops=rng.integers(0, 3, size=(n, L)),
        keys=tuple(f"k{i}" for i in range(n)),
        score=rng.choice(palette, n),
        macs_m=rng.choice(palette, n),
        params_m=rng.choice(palette, n),
        devices=devices,
        cost=rng.choice(palette, (n, len(devices), len(DEVICE_COST_METRICS))))


def _sorted_reference(index, k, objective, device, budgets):
    """Feasible rows ranked by a full Python sort on (value, row)."""
    values = index.column(objective, device)
    feasible = [r for r in range(len(index)) if np.isfinite(values[r])]
    for metric, limit in budgets.items():
        column = index.column(metric, device)
        feasible = [r for r in feasible
                    if np.isfinite(column[r]) and column[r] <= limit]
    sign = -1.0 if objective == "score" else 1.0
    return sorted(feasible, key=lambda r: (sign * values[r], r))[:k]


@settings(max_examples=150, deadline=None)
@given(_indexes(), st.sampled_from(["score", "latency_ms", "macs_m"]),
       st.sampled_from([{}, {"macs_m": 0.5}, {"latency_ms": 1.0},
                        {"energy_mj": 0.0, "params_m": 3.0}]))
def test_top_k_equals_full_sort_for_every_k(index, objective, budgets):
    for k in range(len(index) + 3):
        rows = top_k(index, k, objective=objective, device="xavier",
                     budgets=budgets)
        assert rows.tolist() == _sorted_reference(index, k, objective,
                                                  "xavier", budgets), k


@settings(max_examples=100, deadline=None)
@given(_indexes(), st.lists(st.integers(0, 2), min_size=L, max_size=L))
def test_hamming_neighbors_equal_full_sort_for_every_k(index, query):
    distances = [sum(int(a != b) for a, b in zip(row, query))
                 for row in index.ops.tolist()]
    ranked = sorted(range(len(index)), key=lambda r: (distances[r], r))
    for k in range(len(index) + 3):
        rows, dist = hamming_neighbors(index, query, k)
        assert rows.tolist() == ranked[:k], k
        assert dist.tolist() == [distances[r] for r in ranked[:k]], k


def _describe_reference(index, rows, device):
    """``describe_rows`` one row and one cell at a time."""
    columns = range(len(index.devices))
    if device:
        try:
            columns = [index.device_position(device)]
        except ValueError:
            columns = []
    out = []
    for row in np.asarray(rows, dtype=np.int64).tolist():
        entry = {"op_indices": index.ops[row].tolist(),
                 "key": index.keys[row]}
        for metric in GLOBAL_METRICS:
            value = float(getattr(index, metric)[row])
            if np.isfinite(value):
                entry[metric] = value
        for d in columns:
            metrics = {
                metric: float(index.cost[row, d, m])
                for m, metric in enumerate(DEVICE_COST_METRICS)
                if np.isfinite(index.cost[row, d, m])
            }
            if metrics:
                entry.setdefault("devices", {})[index.devices[d]] = metrics
        out.append(entry)
    return out


@settings(max_examples=100, deadline=None)
@given(_indexes(), st.data())
def test_describe_rows_equals_per_row_reference(index, data):
    rows = (data.draw(st.lists(st.integers(0, len(index) - 1),
                               max_size=len(index))) if len(index) else [])
    for device in (None, "xavier", "gpuzilla"):
        described = describe_rows(index, np.asarray(rows, dtype=np.int64),
                                  device)
        # equal as JSON text: same keys in the same order, same floats
        # (-0.0 included), nothing non-finite
        assert json.dumps(described) == json.dumps(
            _describe_reference(index, rows, device)), device


class TestServedFrontEqualsRecompute:
    """``/pareto`` keeps no state: after appends, an in-place merge that
    rewrites a front row, and a new device column, every answer equals a
    full O(N²) recompute over the current index."""

    @staticmethod
    def _recompute(index, device):
        costs = index.device_column(device, "latency_ms")
        scores = index.score
        valid = np.flatnonzero(np.isfinite(costs) & np.isfinite(scores))
        front = valid[_brute_force_mask(costs[valid], scores[valid])]
        return [index.keys[r]
                for r in front[np.argsort(costs[front], kind="stable")]]

    def test_front_tracks_every_kind_of_write(self, tmp_path, tiny_space):
        import json
        import threading
        import urllib.request

        from repro.archive.service import ArchiveService, make_server
        from repro.predictor.analytic import AnalyticCostPredictor

        rng = np.random.default_rng(23)
        archive = ArchitectureArchive(str(tmp_path / "arc.jsonl"),
                                      space=tiny_space)
        ops = np.unique(tiny_space.sample_indices(1500, rng), axis=0)
        rng.shuffle(ops)
        # rounded coordinates give exact duplicates; 600+ rows run the
        # prefilter
        archive.add_population(
            ops[:700], device="xavier",
            latency_ms=np.round(rng.uniform(5, 50, 700), 1),
            score=np.round(rng.uniform(55, 80, 700), 1), engine="test")
        service = ArchiveService(
            tiny_space, AnalyticCostPredictor(tiny_space, "macs_m"),
            device_name="xavier", archive=archive)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"

        def served(device):
            request = urllib.request.Request(
                base + "/pareto", json.dumps({"device": device}).encode(),
                {"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as response:
                return [e["key"] for e in json.loads(response.read())
                        ["results"]]

        def check(*devices):
            index = archive.index()
            for device in devices:
                assert served(device) == self._recompute(index, device)

        try:
            check("xavier")
            # appends
            archive.add_population(
                ops[700:1000], device="xavier",
                latency_ms=np.round(rng.uniform(5, 50, 300), 1),
                score=np.round(rng.uniform(55, 80, 300), 1), engine="test")
            check("xavier")
            # in-place merges: a front row loses its score, a buried row
            # takes the lead
            index = archive.index()
            front = self._recompute(index, "xavier")
            row = index.keys.index(front[len(front) // 2])
            archive.add(index.ops[row], score=50.0)
            assert served("xavier") != front
            check("xavier")
            costs = index.device_column("xavier", "latency_ms")
            buried = int(np.nanargmax(costs))
            archive.add(index.ops[buried], score=99.0)
            check("xavier")
            # a new device column, sorted before the existing one
            archive.add_population(
                ops[:400], device="edge", engine="test",
                latency_ms=np.round(rng.uniform(1, 9, 400), 1))
            assert archive.index().devices == ("edge", "xavier")
            check("edge", "xavier")
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()
            thread.join(timeout=5)
