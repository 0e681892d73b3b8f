"""Batched JSON query service over the predictor and the archive.

``python -m repro serve`` turns the library into a small traffic-serving
system: a stdlib :mod:`http.server` JSON API exposing

* ``POST /predict`` — metric predictions for a batch of architectures,
* ``POST /query``   — budgeted top-k over the archive (paginated),
* ``POST /pareto``  — the per-device cost/score Pareto frontier (paginated),
* ``POST /nearest`` — Hamming nearest neighbours of a genotype (paginated),
* ``GET  /stats``   — request/batch counters and archive summary,
* ``GET  /health``  — liveness probe,
* ``POST /shutdown``— clean remote shutdown (used by the CI smoke test).

The serving hot path is the :class:`BatchingPredictor`: concurrent
``/predict`` requests are coalesced by a dispatcher thread into single
:meth:`~repro.predictor.mlp.MLPPredictor.predict_population` calls.  The
dispatcher never waits for stragglers: it forwards everything pending as
soon as it is free, and requests that arrive during a forward join the
next one, so a burst of R requests is answered with far fewer than R
forwards, which ``/stats`` makes observable (``predict_requests`` vs
``predict_batches``).  Each architecture's prediction is bit-identical to a
direct ``predict_population`` call (row-subset parity, regression-tested
in ``tests/predictor/test_mlp.py``), so batching is invisible to clients.

Scaling shape: archive queries run against immutable mmap-friendly
:class:`~repro.archive.store.ArchiveIndex` snapshots (safe under the
threading server and shared across forked workers), and the archive
endpoints accept ``offset``/``limit`` with a ``next`` cursor so top-k over
a huge archive never serializes one giant JSON body.  ``repro serve
--workers N`` runs N processes accepting on one ``SO_REUSEPORT`` socket
group over the same memory-mapped segments (see ``repro.cli``).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

import numpy as np

from ..search_space.space import SearchSpace
from . import query as queries
from .store import ArchitectureArchive

__all__ = ["ArchiveService", "BatchingPredictor", "make_server"]


def _is_index(entry) -> bool:
    """True for an integer or an integral float such as ``1.0``; False for
    ``true``, ``null`` and fractional or non-finite floats."""
    if isinstance(entry, bool):
        return False
    if isinstance(entry, (int, np.integer)):
        return True
    return (isinstance(entry, (float, np.floating))
            and float(entry).is_integer())


def _integer(value, field: str) -> int:
    """``value`` of the payload ``field`` as an int (``1.0`` counts as ``1``).

    ``null``, strings, lists, booleans and fractional or non-finite
    numbers raise ``ValueError`` naming the field (a JSON 400); ``int()``
    would truncate ``2.7``, accept ``true`` and overflow on ``Infinity``.
    """
    if not _is_index(value):
        raise ValueError(f"{field!r} must be an integer, got {value!r}")
    return int(value)


def _budgets(payload: dict) -> Dict[str, float]:
    """The ``budgets`` object: metric name → finite number."""
    budgets = payload.get("budgets")
    if budgets is None:
        return {}
    if not isinstance(budgets, dict):
        raise ValueError(f"'budgets' must be an object of metric → number, "
                         f"got {budgets!r}")
    for metric, limit in budgets.items():
        try:
            finite = (isinstance(limit, (int, float))
                      and not isinstance(limit, bool)
                      and math.isfinite(limit))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"'budgets' value for {metric!r} must be a "
                             f"finite number, got {limit!r}")
    return budgets


class _Pending:
    """One enqueued predict request awaiting its slice of a batch."""

    __slots__ = ("ops", "event", "result", "error")

    def __init__(self, ops: np.ndarray) -> None:
        self.ops = ops
        self.event = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[Exception] = None


class BatchingPredictor:
    """Coalesce concurrent predict calls into single batched forwards.

    Parameters
    ----------
    predictor:
        Anything with ``predict_population((N, L) ops) -> (N,)``.
    space:
        Validates incoming op-index matrices.

    The dispatcher is work-conserving: whenever it is free it forwards
    every pending request as one batch, with no batching window, so a lone
    request never waits and requests that queue behind a forward share
    the next one.

    A caller that times out *cancels* its pending item: it leaves the queue
    under the same lock the dispatcher takes the queue with, so an
    abandoned request costs no predictor forward and never drifts the
    ``predict_archs`` / ``largest_batch`` counters.  (An item already in flight when its caller
    gives up cannot be recalled — only its result is discarded.)
    """

    def __init__(self, predictor, space: SearchSpace) -> None:
        self.predictor = predictor
        self.space = space
        self.requests = 0
        self.batches = 0
        self.archs = 0
        self.largest_batch = 0
        self.cancelled = 0
        self._pending: List[_Pending] = []
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="predict-batcher")
        self._thread.start()

    # ------------------------------------------------------------------
    def predict(self, archs, timeout: float = 30.0) -> np.ndarray:
        """Blocking batched prediction for one caller's architectures."""
        ops = self.space.as_index_matrix(archs)
        item = _Pending(ops)
        with self._cond:
            if self._closed:
                raise RuntimeError("the batching predictor is closed")
            self.requests += 1
            self._pending.append(item)
            self._cond.notify_all()
        if not item.event.wait(timeout):
            with self._cond:
                self.cancelled += 1
                if item in self._pending:
                    self._pending.remove(item)
            raise TimeoutError("batched prediction timed out")
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:   # closed and drained
                    return
                # everything pending goes now; later arrivals queue for
                # the next forward
                batch, self._pending = self._pending, []
            stacked = np.concatenate([p.ops for p in batch], axis=0)
            try:
                predictions = self.predictor.predict_population(stacked)
            except Exception as exc:  # surface to every waiter, keep serving
                for item in batch:
                    item.error = exc
                    item.event.set()
                continue
            with self._cond:
                self.batches += 1
                self.archs += len(stacked)
                self.largest_batch = max(self.largest_batch, len(stacked))
            offset = 0
            for item in batch:
                item.result = predictions[offset:offset + len(item.ops)]
                offset += len(item.ops)
                item.event.set()

    def stats(self) -> dict:
        with self._cond:
            return {
                "predict_requests": self.requests,
                "predict_batches": self.batches,
                "predict_archs": self.archs,
                "predict_cancelled": self.cancelled,
                "largest_batch": self.largest_batch,
            }

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------

class ArchiveService:
    """Request handlers behind the HTTP endpoints (also usable in-process)."""

    def __init__(self, space: SearchSpace, predictor, *,
                 metric_name: str = "latency_ms",
                 device_name: str = "",
                 archive: Optional[ArchitectureArchive] = None,
                 default_page_limit: Optional[int] = None) -> None:
        self.space = space
        self.metric_name = metric_name
        self.device_name = device_name
        self.archive = archive
        self.default_page_limit = default_page_limit
        self.batcher = BatchingPredictor(predictor, space)
        self.started = time.time()
        self._endpoint_counts: Dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()

    def _count(self, endpoint: str) -> None:
        with self._count_lock:
            self._endpoint_counts[endpoint] = (
                self._endpoint_counts.get(endpoint, 0) + 1)

    def _parse_archs(self, payload: dict, field: str = "archs") -> np.ndarray:
        """The ``(N, L)`` op-index matrix a payload field names.

        A flat list is one architecture.  Every entry must be an integer
        operator index of this search space (``1.0`` counts as ``1``):
        ``np.asarray(..., int64)`` would silently turn ``1.7`` and ``true``
        into valid indices.
        """
        archs = payload.get(field)
        if not isinstance(archs, list) or not archs:
            raise ValueError(f"body needs a non-empty {field!r} list")
        rows = archs if isinstance(archs[0], list) else [archs]
        for row in rows:
            if not isinstance(row, list):
                raise ValueError(
                    f"{field!r} must be a list of equal-length integer lists")
            bad = [entry for entry in row if not _is_index(entry)]
            if bad:
                raise ValueError(f"{field!r} entries must be integer "
                                 f"operator indices, got {bad[0]!r}")
        try:
            ops = np.asarray(rows, dtype=np.int64)
        except (ValueError, OverflowError):
            raise ValueError(
                f"{field!r} must be a list of equal-length integer lists"
            ) from None
        try:
            return self.space.as_index_matrix(ops)
        except ValueError as exc:
            raise ValueError(f"{field!r}: {exc}") from None

    def _require_archive(self) -> ArchitectureArchive:
        if self.archive is None:
            raise ValueError(
                "this server has no archive loaded; restart with --archive")
        return self.archive

    def _page(self, payload: dict, rows: np.ndarray):
        """Apply the request's ``offset``/``limit`` to a ranked row set."""
        offset = _integer(payload.get("offset", 0), "offset")
        limit = payload.get("limit", self.default_page_limit)
        if limit is not None:
            limit = _integer(limit, "limit")
        return queries.paginate(rows, offset, limit) + (offset,)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def predict(self, payload: dict) -> dict:
        self._count("predict")
        ops = self._parse_archs(payload)
        predictions = self.batcher.predict(ops)
        return {
            "metric": self.metric_name,
            "device": self.device_name,
            "count": len(ops),
            "predictions": predictions.tolist(),
        }

    def _check_device(self, index, payload: dict) -> None:
        """400 on an unknown payload ``device`` instead of silently ignoring.

        Global objectives (``score``, ``macs_m``) never consult the device,
        so without this check a typoed or un-retargeted device name would
        return a 200 whose rows simply lack that device's costs.  Only the
        explicit payload value is validated — the server-side default
        device keeps its historical behaviour — and it matches a stored
        name as :meth:`ArchiveIndex.device_position` does (by the device
        profile both resolve to).  Raises ``ValueError``,
        which ``_dispatch`` maps to a JSON 400 naming the archive's
        devices (fleet devices join the list once ``repro fleet retarget
        --write-back`` records them).
        """
        device = payload.get("device")
        if device is not None and not isinstance(device, str):
            raise ValueError(f"'device' must be a string, got {device!r}")
        if device:
            index.device_position(device)

    def query(self, payload: dict) -> dict:
        self._count("query")
        archive = self._require_archive()
        index = archive.index()
        self._check_device(index, payload)
        device = payload.get("device") or self.device_name or None
        rows = queries.top_k(
            index,
            _integer(payload.get("k", 10), "k"),
            objective=payload.get("objective", "score"),
            device=device,
            budgets=_budgets(payload),
        )
        page, next_offset, total, offset = self._page(payload, rows)
        return {"count": len(page), "total": total,
                "offset": offset, "next": next_offset,
                "results": queries.describe_rows(index, page, device)}

    def pareto(self, payload: dict) -> dict:
        self._count("pareto")
        archive = self._require_archive()
        index = archive.index()
        self._check_device(index, payload)
        device = payload.get("device") or self.device_name
        if not device:
            raise ValueError("pareto needs a device (body or --device)")
        rows = queries.pareto_rows(
            index, device=device,
            cost_metric=payload.get("cost_metric", "latency_ms"),
            quality=payload.get("quality", "score"))
        page, next_offset, total, offset = self._page(payload, rows)
        return {"count": len(page), "total": total, "device": device,
                "offset": offset, "next": next_offset,
                "results": queries.describe_rows(index, page, device)}

    def nearest(self, payload: dict) -> dict:
        self._count("nearest")
        archive = self._require_archive()
        index = archive.index()
        self._check_device(index, payload)
        arch = self._parse_archs(payload, "arch")
        if len(arch) != 1:
            raise ValueError("'arch' must be one list of operator indices")
        rows, distances = queries.hamming_neighbors(
            index, arch[0], _integer(payload.get("k", 5), "k"))
        page, next_offset, total, offset = self._page(payload, rows)
        results = queries.describe_rows(index, page,
                                        payload.get("device") or None)
        page_distances = distances[offset:offset + len(page)]
        for entry, distance in zip(results, page_distances.tolist()):
            entry["hamming_layers"] = distance
        return {"count": len(page), "total": total,
                "offset": offset, "next": next_offset, "results": results}

    def stats(self) -> dict:
        self._count("stats")
        payload = {
            "uptime_s": round(time.time() - self.started, 3),
            "metric": self.metric_name,
            "device": self.device_name,
            **self.batcher.stats(),
        }
        with self._count_lock:
            payload["endpoints"] = dict(self._endpoint_counts)
        payload["archive"] = (self.archive.stats()
                              if self.archive is not None else None)
        return payload

    def close(self) -> None:
        """Shut the batcher thread and archive handle down (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.batcher.close()
        if self.archive is not None:
            self.archive.close()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # quiet by default: the CLI prints one line per server, not per request
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> ArchiveService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # One write per response.  end_headers() would send the header
        # block alone and the body in a second write; on a kept-alive
        # connection Nagle's algorithm then holds the body back until the
        # client's delayed ACK, ~40 ms per response.  Queue the blank line
        # and the body behind the headers so flush_headers() sends both.
        if self.request_version == "HTTP/0.9":  # no header block at all
            self.wfile.write(body)
            return
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON ({exc})")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        """Run one endpoint, mapping every failure to a JSON error body.

        GET and POST share this path: an :class:`ArchiveError` (or any
        unexpected exception) from a handler must produce a 5xx JSON
        response, never a silently dropped connection.
        """
        try:
            self._send_json(200, handler())
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        except TimeoutError as exc:
            self._send_json(503, {"error": str(exc)})
        except Exception as exc:
            self._send_json(500, {"error": f"internal error: {exc}"})

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/stats":
            self._dispatch(self.service.stats)
        elif self.path == "/health":
            self._dispatch(lambda: {"ok": True})
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        routes = {
            "/predict": self.service.predict,
            "/query": self.service.query,
            "/pareto": self.service.pareto,
            "/nearest": self.service.nearest,
        }
        if self.path == "/shutdown":
            self._send_json(200, {"ok": True, "shutting_down": True})
            server, service = self.server, self.service

            def stop() -> None:
                # shutdown() returns once serve_forever has exited; only
                # then is it safe to close the batcher and archive handle
                server.shutdown()
                service.close()

            threading.Thread(target=stop, daemon=True).start()
            return
        handler = routes.get(self.path)
        if handler is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        self._dispatch(lambda: handler(self._read_json()))


class _ReusePortHTTPServer(ThreadingHTTPServer):
    """A threading server whose listener joins an ``SO_REUSEPORT`` group.

    Every worker process binds its *own* socket to the same address and
    the kernel load-balances incoming connections across them — no fd
    passing, no accept-loop handoff.
    """

    def server_bind(self) -> None:
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise OSError("this platform has no SO_REUSEPORT; "
                          "run with workers=1")
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def make_server(service: ArchiveService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False,
                reuse_port: bool = False) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for a service (port 0 = ephemeral).

    With ``reuse_port=True`` the listener joins an ``SO_REUSEPORT`` group,
    so several processes can serve one address (``repro serve --workers``).
    """
    server_cls = _ReusePortHTTPServer if reuse_port else ThreadingHTTPServer
    server = server_cls((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server
