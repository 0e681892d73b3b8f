"""Batching predictor coalescing and the HTTP JSON API end-to-end."""

import http.client
import json
import socket
import socketserver
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.archive.service import ArchiveService, BatchingPredictor, \
    make_server
from repro.archive.store import ArchitectureArchive
from repro.predictor.analytic import AnalyticCostPredictor


@pytest.fixture(scope="module")
def analytic(tiny_space):
    return AnalyticCostPredictor(tiny_space, "macs_m")


class TestBatchingPredictor:
    def test_concurrent_requests_coalesce(self, tiny_space, analytic):
        """A burst of R requests is served by fewer than R forwards."""
        batcher = BatchingPredictor(analytic, tiny_space, window_s=0.25)
        rng = np.random.default_rng(0)
        requests = 8
        ops = [tiny_space.sample_indices(4, rng) for _ in range(requests)]
        results = [None] * requests
        barrier = threading.Barrier(requests)

        def worker(i):
            barrier.wait()
            results[i] = batcher.predict(ops[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(requests)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i in range(requests):
            assert np.array_equal(results[i],
                                  analytic.predict_population(ops[i]))
        stats = batcher.stats()
        assert stats["predict_requests"] == requests
        assert stats["predict_batches"] < requests
        assert stats["predict_archs"] == 4 * requests
        assert stats["largest_batch"] > 4
        batcher.close()

    def test_sequential_requests_still_work(self, tiny_space, analytic):
        batcher = BatchingPredictor(analytic, tiny_space, window_s=0.0)
        ops = tiny_space.sample_indices(3, np.random.default_rng(1))
        out = batcher.predict(ops)
        assert np.array_equal(out, analytic.predict_population(ops))
        batcher.close()

    def test_max_batch_dispatches_early(self, tiny_space, analytic):
        batcher = BatchingPredictor(analytic, tiny_space, window_s=60.0,
                                    max_batch=4)
        # a single request at max_batch must not wait out the huge window
        ops = tiny_space.sample_indices(4, np.random.default_rng(2))
        out = batcher.predict(ops, timeout=10.0)
        assert len(out) == 4
        batcher.close()

    def test_predictor_error_reaches_every_waiter(self, tiny_space):
        class Exploding:
            def predict_population(self, ops):
                raise RuntimeError("boom")

        batcher = BatchingPredictor(Exploding(), tiny_space, window_s=0.0)
        ops = tiny_space.sample_indices(2, np.random.default_rng(3))
        with pytest.raises(RuntimeError, match="boom"):
            batcher.predict(ops)
        batcher.close()

    def test_closed_batcher_raises(self, tiny_space, analytic):
        batcher = BatchingPredictor(analytic, tiny_space)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.predict(tiny_space.sample_indices(
                1, np.random.default_rng(4)))

    def test_invalid_parameters(self, tiny_space, analytic):
        with pytest.raises(ValueError):
            BatchingPredictor(analytic, tiny_space, window_s=-1.0)
        with pytest.raises(ValueError):
            BatchingPredictor(analytic, tiny_space, max_batch=0)


@pytest.fixture
def server(tmp_path, tiny_space, analytic):
    """A live HTTP server on an ephemeral port, backed by a tiny archive."""
    rng = np.random.default_rng(7)
    path = str(tmp_path / "arc.jsonl")
    archive = ArchitectureArchive(path, space=tiny_space)
    ops = tiny_space.sample_indices(30, rng)
    archive.add_population(
        ops, device="xavier",
        latency_ms=rng.uniform(10, 40, size=30),
        macs_m=analytic.predict_population(ops),
        score=rng.uniform(60, 76, size=30), engine="fixture")
    service = ArchiveService(tiny_space, analytic, metric_name="macs_m",
                             device_name="xavier", archive=archive,
                             window_s=0.0)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, ops
    httpd.shutdown()
    httpd.server_close()
    service.close()
    thread.join(timeout=5)


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def post(base, path, payload):
    req = urllib.request.Request(
        base + path, json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as response:
        return json.loads(response.read())


class TestHTTPEndpoints:
    def test_health(self, server):
        base, _ = server
        assert get(base, "/health") == {"ok": True}

    def test_predict_matches_direct(self, server, tiny_space, analytic):
        base, ops = server
        batch = ops[:6].tolist()
        body = post(base, "/predict", {"archs": batch})
        assert body["metric"] == "macs_m"
        assert body["count"] == 6
        expected = analytic.predict_population(np.asarray(batch)).tolist()
        assert body["predictions"] == expected

    def test_single_arch_row_is_promoted(self, server, tiny_space):
        base, ops = server
        body = post(base, "/predict", {"archs": ops[0].tolist()})
        assert body["count"] == 1

    def test_query_with_budget(self, server):
        base, _ = server
        body = post(base, "/query",
                    {"k": 5, "budgets": {"latency_ms": 30.0}})
        assert 0 < body["count"] <= 5
        for entry in body["results"]:
            assert entry["devices"]["xavier"]["latency_ms"] <= 30.0

    def test_pareto(self, server):
        base, _ = server
        body = post(base, "/pareto", {"device": "xavier"})
        assert body["count"] > 0
        costs = [e["devices"]["xavier"]["latency_ms"]
                 for e in body["results"]]
        assert costs == sorted(costs)

    def test_nearest(self, server):
        base, ops = server
        body = post(base, "/nearest", {"arch": ops[0].tolist(), "k": 3})
        assert body["count"] == 3
        assert body["results"][0]["hamming_layers"] == 0

    def test_stats_counts_requests_and_batches(self, server):
        base, ops = server
        for _ in range(3):
            post(base, "/predict", {"archs": ops[:2].tolist()})
        stats = get(base, "/stats")
        assert stats["predict_requests"] >= 3
        assert stats["predict_batches"] >= 1
        assert stats["endpoints"]["predict"] >= 3
        assert stats["archive"]["records"] == 30

    def test_bad_body_is_400(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as info:
            post(base, "/predict", {"archs": []})
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            post(base, "/predict", {"archs": [["x", "y"]]})
        assert info.value.code == 400

    def test_out_of_space_arch_is_400(self, server, tiny_space):
        base, _ = server
        bad = [[99] * tiny_space.num_layers]
        with pytest.raises(urllib.error.HTTPError) as info:
            post(base, "/predict", {"archs": bad})
        assert info.value.code == 400

    def test_unknown_path_is_404(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as info:
            get(base, "/nope")
        assert info.value.code == 404

    def test_shutdown_endpoint(self, tiny_space, analytic):
        service = ArchiveService(tiny_space, analytic, window_s=0.0)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        assert post(base, "/shutdown", {}) == {"ok": True,
                                               "shutting_down": True}
        thread.join(timeout=5)
        assert not thread.is_alive()
        httpd.server_close()
        service.close()

    def test_pagination_cursor(self, server):
        base, _ = server
        full = post(base, "/query", {"k": 30})
        first = post(base, "/query", {"k": 30, "limit": 7})
        assert first["count"] == 7
        assert first["total"] == full["count"]
        assert first["next"] == 7
        last = post(base, "/query", {"k": 30, "limit": 7,
                                     "offset": full["count"] - 2})
        assert last["count"] == 2
        assert last["next"] is None

    def test_bad_pagination_is_400(self, server):
        base, _ = server
        for body in ({"k": 5, "limit": 0}, {"k": 5, "offset": -1},
                     {"k": 5, "limit": "many"}):
            with pytest.raises(urllib.error.HTTPError) as info:
                post(base, "/query", body)
            assert info.value.code == 400

    def test_unknown_device_is_400_naming_known(self, server):
        """/query, /pareto and /nearest must reject an unknown payload
        device with a JSON 400 naming the archive's devices — not silently
        return device-less rows (regression: global objectives never
        consulted the device, so typos passed through)."""
        base, ops = server
        for path, body in (
                ("/query", {"k": 3, "device": "gpuzilla"}),
                ("/pareto", {"device": "gpuzilla"}),
                ("/nearest", {"arch": ops[0].tolist(), "k": 2,
                              "device": "gpuzilla"})):
            with pytest.raises(urllib.error.HTTPError) as info:
                post(base, path, body)
            assert info.value.code == 400, path
            error = json.loads(info.value.read())["error"]
            assert "gpuzilla" in error and "xavier" in error, path

    def test_known_device_still_served(self, server):
        base, ops = server
        body = post(base, "/nearest", {"arch": ops[0].tolist(), "k": 2,
                                       "device": "xavier"})
        assert body["count"] == 2
        assert "xavier" in body["results"][0]["devices"]

    def test_query_without_archive_is_400(self, tiny_space, analytic):
        service = ArchiveService(tiny_space, analytic, window_s=0.0)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                post(base, "/query", {"k": 3})
            assert info.value.code == 400
            assert "--archive" in json.loads(info.value.read())["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()


class _CountingPredictor:
    """Wraps a predictor, recording exactly which rows reach a forward."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.rows_seen = 0

    def predict_population(self, ops):
        self.calls += 1
        self.rows_seen += len(ops)
        return self.inner.predict_population(ops)


class _ExplodingArchive:
    """An archive stub whose stats() raises, as a failing mmap would."""

    def stats(self):
        raise RuntimeError("stats exploded")

    def close(self):
        pass


class TestRegressions:
    """Named regression tests for the serving-stack bugfixes.

    Each of these fails against the pre-fix code: do_GET without error
    handling killed the connection instead of answering 500; /shutdown
    stopped the accept loop but leaked the batcher thread and archive
    handle; a timed-out predict caller's request was still forwarded and
    counted.
    """

    def test_get_stats_failure_returns_500_json(self, tiny_space, analytic):
        """A raising handler on GET must yield a JSON 500, not a dead
        socket (pre-fix: http.client.RemoteDisconnected)."""
        service = ArchiveService(tiny_space, analytic, window_s=0.0,
                                 archive=_ExplodingArchive())
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                get(base, "/stats")
            assert info.value.code == 500
            assert "stats exploded" in json.loads(info.value.read())["error"]
            # the server survives and keeps answering
            assert get(base, "/health") == {"ok": True}
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()
            thread.join(timeout=5)

    def test_shutdown_closes_batcher_and_archive(self, tmp_path, tiny_space,
                                                 analytic):
        """POST /shutdown must release service resources, not just stop
        accepting (pre-fix: batcher thread and store handle leaked)."""
        archive = ArchitectureArchive(str(tmp_path / "arc.jsonl"),
                                      space=tiny_space)
        service = ArchiveService(tiny_space, analytic, window_s=0.0,
                                 archive=archive)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        assert post(base, "/shutdown", {})["shutting_down"] is True
        thread.join(timeout=5)
        assert not thread.is_alive()
        # service.close() runs on the shutdown thread right after the
        # accept loop exits; give it a moment, then assert it happened
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not archive.closed:
            time.sleep(0.01)
        assert archive.closed
        assert not service.batcher._thread.is_alive()
        service.close()   # idempotent: a second close must be a no-op
        httpd.server_close()

    def test_each_response_is_one_socket_write(self, server, monkeypatch):
        """Headers and body leave in a single write, so a kept-alive
        connection never waits on Nagle + delayed ACK between them
        (pre-fix: two writes per response, ~40 ms stall each)."""
        base, ops = server
        writes = []
        real_write = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(bytes(data))
            return real_write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            counting_write)
        host, port = base[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            requests = [
                ("GET", "/stats", None),
                ("POST", "/predict", {"archs": ops[:3].tolist()}),
                ("POST", "/query", {"k": 5}),
                ("GET", "/nowhere", None),   # 404 path
            ]
            for method, path, payload in requests:   # one kept-alive socket
                before = len(writes)
                body = None if payload is None else json.dumps(payload)
                conn.request(method, path, body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = json.loads(response.read())
                assert isinstance(data, dict)
                assert len(writes) - before == 1, (path, writes[before:])
                head, _, tail = writes[-1].partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 ")
                assert json.loads(tail) == data
        finally:
            conn.close()

    def test_http09_request_gets_the_bare_body(self, server):
        """An HTTP/0.9 request has no header block to share the write with;
        it is answered with the JSON body alone."""
        base, _ = server
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"GET /health\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert json.loads(reply) == {"ok": True}

    def test_timed_out_predict_is_cancelled_at_dispatch(self, tiny_space,
                                                        analytic):
        """An abandoned request must not reach the predictor or drift the
        throughput counters (pre-fix: it was forwarded and counted)."""
        counting = _CountingPredictor(analytic)
        batcher = BatchingPredictor(counting, tiny_space, window_s=1.0)
        rng = np.random.default_rng(11)
        abandoned = tiny_space.sample_indices(5, rng)
        served = tiny_space.sample_indices(3, rng)
        with pytest.raises(TimeoutError):
            batcher.predict(abandoned, timeout=0.1)
        out = batcher.predict(served, timeout=10.0)
        assert np.array_equal(out, analytic.predict_population(served))
        assert counting.rows_seen == len(served)   # abandoned rows never ran
        stats = batcher.stats()
        assert stats["predict_requests"] == 2
        assert stats["predict_cancelled"] == 1
        assert stats["predict_archs"] == len(served)
        assert stats["largest_batch"] == len(served)
        batcher.close()
