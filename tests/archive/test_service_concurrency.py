"""Load-shaped tests: a live server under mixed concurrent traffic.

These are the serving-stack hardening tests: many client threads hammer
``/predict`` + ``/query`` + ``/stats`` while an in-process writer keeps
appending to the same archive, and every response must be a well-formed
JSON 2xx/4xx — never a 5xx, never a reset connection.  A second group
checks that cursor-walking the paginated endpoints reassembles exactly
the unpaginated result.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.archive.service import ArchiveService, make_server
from repro.archive.store import ArchitectureArchive
from repro.predictor.analytic import AnalyticCostPredictor


@pytest.fixture(scope="module")
def analytic(tiny_space):
    return AnalyticCostPredictor(tiny_space, "macs_m")


@pytest.fixture
def live(tmp_path, tiny_space, analytic):
    """A live server plus the writable archive behind it."""
    rng = np.random.default_rng(17)
    archive = ArchitectureArchive(str(tmp_path / "arc.jsonl"),
                                  space=tiny_space)
    ops = tiny_space.sample_indices(100, rng)
    archive.add_population(
        ops, device="xavier",
        latency_ms=rng.uniform(5, 50, size=100),
        macs_m=analytic.predict_population(ops),
        score=rng.uniform(55, 80, size=100), engine="fixture")
    service = ArchiveService(tiny_space, analytic, metric_name="macs_m",
                             device_name="xavier", archive=archive)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, archive, ops, service
    httpd.shutdown()
    httpd.server_close()
    service.close()
    thread.join(timeout=5)


def request(base, path, payload=None):
    """One HTTP call; returns (status, parsed body) and never raises for
    HTTP-level errors — transport failures (resets) do propagate."""
    if payload is None:
        req = urllib.request.Request(base + path)
    else:
        req = urllib.request.Request(
            base + path, json.dumps(payload).encode("utf-8"),
            {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestMixedTrafficUnderWrites:
    def test_no_5xx_or_resets_while_writer_appends(self, live, tiny_space):
        base, archive, ops, service = live
        # the archive dedupes by content: the fixture's 100 seeded draws
        # hold fewer distinct genotypes, and that is the floor /stats sees
        # before the writer has added anything
        fixture_records = len(np.unique(ops, axis=0))
        clients = 8
        per_client = 12
        errors = []
        statuses = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def client(i):
            rng = np.random.default_rng(1000 + i)
            last_records = fixture_records
            barrier.wait()
            for j in range(per_client):
                kind = (i + j) % 3
                try:
                    if kind == 0:
                        batch = tiny_space.sample_indices(4, rng)
                        status, body = request(
                            base, "/predict", {"archs": batch.tolist()})
                        if status == 200:
                            assert body["count"] == 4
                    elif kind == 1:
                        status, body = request(
                            base, "/query", {"k": 10, "limit": 5})
                        if status == 200:
                            assert body["count"] <= 5
                    else:
                        status, body = request(base, "/stats")
                        if status == 200:
                            # an append-only archive never shrinks
                            records = body["archive"]["records"]
                            assert records >= last_records, (
                                records, last_records)
                            last_records = records
                    with lock:
                        statuses.append(status)
                except Exception as exc:   # resets, bad JSON, torn reads
                    with lock:
                        errors.append(repr(exc))

        def writer():
            rng = np.random.default_rng(9)
            barrier.wait()
            for _ in range(60):
                arch = tiny_space.sample_indices(1, rng)[0]
                archive.add(arch, device="edge-nano",
                            latency_ms=float(rng.uniform(5, 50)),
                            score=float(rng.uniform(55, 80)))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        writer_thread = threading.Thread(target=writer)
        for t in threads + [writer_thread]:
            t.start()
        for t in threads + [writer_thread]:
            t.join()

        assert errors == []
        assert len(statuses) == clients * per_client
        assert all(status < 500 for status in statuses), statuses
        # under concurrent load the batcher must actually coalesce
        stats = service.batcher.stats()
        assert stats["predict_batches"] <= stats["predict_requests"]
        assert stats["predict_requests"] > 0

    def test_queries_see_monotonically_growing_archive(self, live,
                                                       tiny_space):
        base, archive, _, _ = live
        totals = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                status, body = request(base, "/query", {"k": 10_000})
                assert status == 200
                totals.append(body["total"])

        poller = threading.Thread(target=poll)
        poller.start()
        rng = np.random.default_rng(23)
        for _ in range(40):
            archive.add(tiny_space.sample_indices(1, rng)[0],
                        score=float(rng.uniform(55, 80)))
        stop.set()
        poller.join()
        assert totals == sorted(totals)   # snapshots never go backwards


def walk(base, path, payload, limit):
    """Cursor-walk a paginated endpoint, returning all result rows."""
    rows, offset = [], 0
    while True:
        status, body = request(base, path,
                               {**payload, "offset": offset, "limit": limit})
        assert status == 200, body
        assert body["count"] == len(body["results"]) <= limit
        assert body["offset"] == offset
        rows.extend(body["results"])
        if body["next"] is None:
            assert len(rows) == body["total"]
            return rows
        assert body["next"] == offset + limit
        offset = body["next"]


class TestPaginationRoundTrip:
    def test_query_cursor_walk_reassembles_full_result(self, live):
        base = live[0]
        status, full = request(base, "/query", {"k": 100})
        assert status == 200 and full["count"] > 90
        pages = walk(base, "/query", {"k": 100}, limit=7)
        assert pages == full["results"]

    def test_pareto_cursor_walk(self, live):
        base = live[0]
        status, full = request(base, "/pareto", {"device": "xavier"})
        assert status == 200 and full["count"] > 1
        pages = walk(base, "/pareto", {"device": "xavier"}, limit=2)
        assert pages == full["results"]

    def test_nearest_cursor_walk_keeps_distances(self, live):
        base, _, ops, _ = live
        payload = {"arch": ops[0].tolist(), "k": 50}
        status, full = request(base, "/nearest", payload)
        assert status == 200 and full["count"] == 50
        pages = walk(base, "/nearest", payload, limit=9)
        assert pages == full["results"]
        distances = [entry["hamming_layers"] for entry in pages]
        assert distances == sorted(distances)

    def test_default_page_limit_is_applied(self, tmp_path, tiny_space,
                                           analytic):
        rng = np.random.default_rng(29)
        archive = ArchitectureArchive(str(tmp_path / "arc2.jsonl"),
                                      space=tiny_space)
        archive.add_population(tiny_space.sample_indices(40, rng),
                               score=rng.uniform(50, 80, size=40))
        service = ArchiveService(tiny_space, analytic,
                                 archive=archive, default_page_limit=10)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            status, body = request(base, "/query", {"k": 40})
            assert status == 200
            assert body["count"] == 10 and body["next"] == 10
            # an explicit limit in the body overrides the server default
            status, body = request(base, "/query", {"k": 40, "limit": 25})
            assert status == 200 and body["count"] == 25
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()
            thread.join(timeout=5)
