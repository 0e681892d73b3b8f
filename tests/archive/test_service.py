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
from repro.hardware.device import XAVIER_MAXN
from repro.predictor.analytic import AnalyticCostPredictor


@pytest.fixture(scope="module")
def analytic(tiny_space):
    return AnalyticCostPredictor(tiny_space, "macs_m")


class _GatedPredictor:
    """A predictor whose first forward blocks until the test opens a gate.

    While that forward is held, every request the test sends queues behind
    it, so which requests share the next forward is decided by the test,
    not by thread timing.
    """

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()   # the first forward has started
        self.gate = threading.Event()      # lets the first forward finish
        self.batches = []                  # row count of every forward

    def predict_population(self, ops):
        self.batches.append(len(ops))
        if len(self.batches) == 1:
            self.entered.set()
            assert self.gate.wait(10.0), "the test never opened the gate"
        return self.inner.predict_population(ops)


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def _start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


class TestBatchingPredictor:
    def test_concurrent_requests_coalesce(self, tiny_space, analytic):
        """A burst of R requests queued behind a forward is served by
        exactly one more forward."""
        gated = _GatedPredictor(analytic)
        batcher = BatchingPredictor(gated, tiny_space)
        rng = np.random.default_rng(0)
        requests = 8
        first = tiny_space.sample_indices(2, rng)
        ops = [tiny_space.sample_indices(4, rng) for _ in range(requests)]
        results = [None] * requests

        def worker(i):
            results[i] = batcher.predict(ops[i])

        blocker = _start(batcher.predict, first)
        assert gated.entered.wait(10.0)
        threads = [_start(worker, i) for i in range(requests)]
        _wait_until(lambda: batcher.stats()["predict_requests"]
                    == requests + 1)
        gated.gate.set()
        for t in threads + [blocker]:
            t.join(10.0)
            assert not t.is_alive()

        for i in range(requests):
            assert np.array_equal(results[i],
                                  analytic.predict_population(ops[i]))
        assert gated.batches == [2, 4 * requests]
        stats = batcher.stats()
        assert stats["predict_requests"] == requests + 1
        assert stats["predict_batches"] == 2
        assert stats["predict_archs"] == 2 + 4 * requests
        assert stats["largest_batch"] == 4 * requests
        batcher.close()

    def test_sequential_requests_still_work(self, tiny_space, analytic):
        batcher = BatchingPredictor(analytic, tiny_space)
        ops = tiny_space.sample_indices(3, np.random.default_rng(1))
        out = batcher.predict(ops)
        assert np.array_equal(out, analytic.predict_population(ops))
        batcher.close()

    def test_predictor_error_reaches_every_waiter(self, tiny_space):
        class Exploding:
            def predict_population(self, ops):
                raise RuntimeError("boom")

        batcher = BatchingPredictor(Exploding(), tiny_space)
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
                             device_name="xavier", archive=archive)
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
        service = ArchiveService(tiny_space, analytic)
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

    def test_device_matched_by_its_profile(self, server):
        """The archive holds "xavier" costs; a request naming the same
        device by its full profile name gets the same rows (regression:
        it was a 400 naming "xavier" as the only known device)."""
        base, _ = server
        alias = post(base, "/pareto", {"device": "xavier"})
        full = post(base, "/pareto", {"device": XAVIER_MAXN.name})
        assert full["results"] == alias["results"]
        assert full["count"] > 0

    def test_known_device_still_served(self, server):
        base, ops = server
        body = post(base, "/nearest", {"arch": ops[0].tolist(), "k": 2,
                                       "device": "xavier"})
        assert body["count"] == 2
        assert "xavier" in body["results"][0]["devices"]

    def test_query_without_archive_is_400(self, tiny_space, analytic):
        service = ArchiveService(tiny_space, analytic)
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
        service = ArchiveService(tiny_space, analytic,
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
        service = ArchiveService(tiny_space, analytic,
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

    def test_out_of_space_nearest_arch_is_400(self, server, tiny_space):
        """/nearest must range-check its genotype like /predict does
        (pre-fix: [99]*L answered with "neighbours" at distance L)."""
        base, _ = server
        for arch in ([99] * tiny_space.num_layers,
                     [-1] * tiny_space.num_layers):
            with pytest.raises(urllib.error.HTTPError) as info:
                post(base, "/nearest", {"arch": arch, "k": 3})
            assert info.value.code == 400, arch
            assert "'arch'" in json.loads(info.value.read())["error"]

    def test_non_integer_entries_are_400(self, server, tiny_space):
        """Fractional, boolean and null entries are rejected, naming the
        field (pre-fix: int64 conversion answered [[1.7]*L] and [[true]*L]
        exactly as [[1]*L]); integral floats still count as integers."""
        base, _ = server
        layers = tiny_space.num_layers
        for path, body, field in (
                ("/predict", {"archs": [[1.7] * layers]}, "'archs'"),
                ("/predict", {"archs": [[True] * layers]}, "'archs'"),
                ("/predict", {"archs": [[1] * layers, [None] * layers]},
                 "'archs'"),
                ("/nearest", {"arch": [1.7] * layers}, "'arch'"),
                ("/nearest", {"arch": [True] * layers}, "'arch'")):
            with pytest.raises(urllib.error.HTTPError) as info:
                post(base, path, body)
            assert info.value.code == 400, body
            assert field in json.loads(info.value.read())["error"], body
        body = post(base, "/predict", {"archs": [[1] * layers]})
        assert body["count"] == 1
        as_floats = post(base, "/predict", {"archs": [[1.0] * layers]})
        assert as_floats["predictions"] == body["predictions"]

    @pytest.mark.parametrize("path, body, field", [
        pytest.param("/query", {"k": None}, "'k'", id="query-k-null"),
        pytest.param("/query", {"k": [3]}, "'k'", id="query-k-list"),
        pytest.param("/query", {"k": float("inf")}, "'k'",
                     id="query-k-infinity"),
        pytest.param("/query", {"budgets": "x"}, "'budgets'",
                     id="query-budgets-string"),
        pytest.param("/query", {"budgets": {"latency_ms": None}},
                     "'budgets'", id="query-budget-null"),
        pytest.param("/query", {"device": 5}, "'device'",
                     id="query-device-number"),
        pytest.param("/nearest", {"k": None}, "'k'", id="nearest-k-null"),
    ])
    def test_malformed_query_field_is_400(self, server, path, body, field):
        """A malformed ``k``, ``budgets`` or ``device`` is a JSON 400
        naming the field (pre-fix: ``int()``/``float()`` on it raised
        outside the ValueError path and answered ``500 internal error``)."""
        base, ops = server
        if path == "/nearest":
            body = {"arch": ops[0].tolist(), **body}
        with pytest.raises(urllib.error.HTTPError) as info:
            post(base, path, body)
        assert info.value.code == 400
        assert field in json.loads(info.value.read())["error"]

    def test_timed_out_predict_is_cancelled_at_dispatch(self, tiny_space,
                                                        analytic):
        """A caller that times out while queued must not reach the
        predictor or drift the throughput counters (pre-fix: it was
        forwarded and counted)."""
        gated = _GatedPredictor(analytic)
        batcher = BatchingPredictor(gated, tiny_space)
        rng = np.random.default_rng(11)
        first = tiny_space.sample_indices(2, rng)
        abandoned = tiny_space.sample_indices(5, rng)
        served = tiny_space.sample_indices(3, rng)
        blocker = _start(batcher.predict, first)
        assert gated.entered.wait(10.0)
        # queued behind the held forward, so it can only time out
        with pytest.raises(TimeoutError):
            batcher.predict(abandoned, timeout=0.05)
        gated.gate.set()
        blocker.join(10.0)
        assert not blocker.is_alive()
        out = batcher.predict(served, timeout=10.0)
        assert np.array_equal(out, analytic.predict_population(served))
        assert gated.batches == [len(first), len(served)]  # never ran
        stats = batcher.stats()
        assert stats["predict_requests"] == 3
        assert stats["predict_cancelled"] == 1
        assert stats["predict_batches"] == 2
        assert stats["predict_archs"] == len(first) + len(served)
        assert stats["largest_batch"] == len(served)
        batcher.close()
