"""Append-only, crash-safe on-disk archive of evaluated architectures.

Every search engine in this repository evaluates thousands-to-millions of
architectures per run and then discards them.  The archive is the
NAS-bench-style persistent record that fixes that: one
:class:`ArchitectureArchive` file accumulates every architecture the system
has ever evaluated — deduplicated across generations, engines, and runs —
together with per-device cost records (*One Proxy Device Is Enough*
motivates keeping costs per device so one store serves many deployment
targets) and provenance (engine, seed, config fingerprint, reusing
:func:`repro.runtime.checkpoint.fingerprint_of`).

Storage is split into two layers:

* **The write-ahead log (WAL)** — the JSON-lines archive file itself: one
  record per line, each protected by a CRC-32 prefix and flushed on write,
  so a crashed run leaves a readable archive up to the crash.  A truncated
  or corrupt line raises :class:`ArchiveError` with a remedy
  (:func:`repair_archive` truncates a damaged tail), never silently drops
  data.
* **Segments** (:mod:`repro.archive.segments`) — compacted memory-mapped
  snapshots of the merged state.  :meth:`ArchitectureArchive.compact` cuts
  one; subsequent opens mmap the arrays and replay only the WAL tail
  written after the segment, instead of parsing the full log.  Serving
  workers share the mmap'd pages.

The stacked index is the archive's one in-memory form, and it is
**incrementally extended and thread-safe**: every append updates growable
stacked arrays in place (O(1) per record) under a lock, and
:meth:`ArchitectureArchive.index` hands out immutable :class:`ArchiveIndex`
snapshots — concurrent readers never observe a half-merged record, and a
post-append query no longer re-stacks the whole archive.  A snapshot is a
set of read-only views of the live arrays, so taking one copies nothing;
the live arrays are copied only when a merge rewrites a row that a
snapshot covers (copy-on-write).  Fields the index does not stack
(provenance) are kept in the WAL only.

Records are keyed by the SHA-1 of the architecture's one-hot encoding (the
ᾱ matrix of Eq. 4), so the same genotype written by different engines/runs
merges into one record.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from hashlib import sha1
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.device import resolve_device
from .segments import (
    ArchiveError,
    Segment,
    frame_line as _frame,
    load_current_segment,
    unframe_line as _unframe,
    write_segment,
)

__all__ = [
    "ARCHIVE_VERSION",
    "ARCHIVE_MAGIC",
    "DEVICE_COST_METRICS",
    "ArchiveError",
    "ArchRecord",
    "ArchiveIndex",
    "ArchitectureArchive",
    "arch_key",
    "repair_archive",
]

ARCHIVE_VERSION = 1
ARCHIVE_MAGIC = "repro-archive"

#: per-device cost fields stacked into the numpy index, in column order
DEVICE_COST_METRICS = ("latency_ms", "energy_mj",
                       "measured_latency_ms", "measured_energy_mj")

#: architecture-global fields stacked into the numpy index
GLOBAL_METRICS = ("macs_m", "params_m", "score")

_METRIC_POS = {name: i for i, name in enumerate(DEVICE_COST_METRICS)}


def _profile_name(device: str) -> Optional[str]:
    """The device profile ``device`` names, or None for a name no profile
    knows (those match verbatim only)."""
    try:
        return resolve_device(device).name
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------

def arch_key(op_indices: Sequence[int], num_operators: int) -> str:
    """Content address of an architecture: SHA-1 of its one-hot encoding.

    The hash covers the full ``(L, K)`` ᾱ matrix bytes (not just the op
    indices), so the address is exactly "the one-hot encoding's hash" and
    two spaces with different operator vocabularies never share keys.
    """
    ops = np.asarray(op_indices, dtype=np.int64)
    if ops.ndim != 1 or ops.size == 0:
        raise ValueError("op_indices must be a non-empty 1-D sequence")
    if ops.min() < 0 or ops.max() >= num_operators:
        raise ValueError("operator index out of range for this space")
    one_hot = np.zeros((ops.size, num_operators), dtype=np.uint8)
    one_hot[np.arange(ops.size), ops] = 1
    return sha1(one_hot.tobytes()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

@dataclass
class ArchRecord:
    """One archived architecture with everything known about it.

    Attributes
    ----------
    op_indices:
        The genotype (one operator index per searchable layer).
    key:
        Content address (:func:`arch_key`).
    devices:
        ``{device_name: {metric: value}}`` — per-device predicted/true and
        measured latency/energy (see :data:`DEVICE_COST_METRICS`).
    macs_m / params_m:
        Device-independent compute/size costs (millions).
    score:
        Accuracy-proxy score (oracle top-1), when evaluated.
    provenance:
        ``{"engine", "seed", "fingerprint"}`` of the run that wrote the
        record; kept in the WAL line, not in the index.
    """

    op_indices: Tuple[int, ...]
    key: str
    devices: Dict[str, Dict[str, float]] = field(default_factory=dict)
    macs_m: Optional[float] = None
    params_m: Optional[float] = None
    score: Optional[float] = None
    provenance: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> dict:
        payload: Dict[str, object] = {"key": self.key,
                                      "ops": list(self.op_indices)}
        if self.devices:
            payload["devices"] = self.devices
        if self.macs_m is not None:
            payload["macs_m"] = self.macs_m
        if self.params_m is not None:
            payload["params_m"] = self.params_m
        if self.score is not None:
            payload["score"] = self.score
        if self.provenance:
            payload["provenance"] = self.provenance
        return payload

    @staticmethod
    def from_payload(payload: dict) -> "ArchRecord":
        # older builds also wrote an "extras" map of cached predictions;
        # nothing reads it, so it is skipped
        return ArchRecord(
            op_indices=tuple(int(i) for i in payload["ops"]),
            key=str(payload["key"]),
            devices={str(d): {str(m): float(v) for m, v in metrics.items()}
                     for d, metrics in payload.get("devices", {}).items()},
            macs_m=payload.get("macs_m"),
            params_m=payload.get("params_m"),
            score=payload.get("score"),
            provenance=dict(payload.get("provenance", {})),
        )


# ----------------------------------------------------------------------
# Stacked numpy index
# ----------------------------------------------------------------------

def _layer_dtype(num_operators: int) -> np.dtype:
    """The smallest unsigned dtype holding operator indices ``0..K-1``."""
    return np.min_scalar_type(max(int(num_operators) - 1, 0))


def _layer_block(ops: np.ndarray, dtype=None) -> np.ndarray:
    """``ops`` transposed to a contiguous ``(L, N)`` block of small ints.

    ``dtype`` defaults to the smallest one holding every value in ``ops``.
    """
    ops = np.asarray(ops)
    if dtype is None:
        dtype = (np.result_type(np.min_scalar_type(ops.min()),
                                np.min_scalar_type(ops.max()))
                 if ops.size else np.uint8)
    return np.ascontiguousarray(ops.T, dtype=dtype)


@dataclass
class ArchiveIndex:
    """Read-only stacked numpy view of the archive at one point in time.

    The query engine operates entirely on these arrays: ``ops`` (and its
    layer-major twin ``layers``) for Hamming nearest-neighbour search,
    ``cost``/``score``/``macs_m``/``params_m`` for budgeted top-k and
    Pareto queries.  Missing values are NaN.  Snapshots handed out by
    :meth:`ArchitectureArchive.index` are read-only views of the live
    arrays, and later writes never change them: appends only write rows
    past the snapshot, and a merge into a row a snapshot covers first
    moves the live arrays to a copy — concurrent readers are safe.  An
    index constructed directly derives ``layers`` from ``ops``.
    """

    ops: np.ndarray                 #: ``(N, L)`` int64 genotypes
    keys: Tuple[str, ...]           #: content addresses, aligned with rows
    score: np.ndarray               #: ``(N,)`` accuracy-proxy score
    macs_m: np.ndarray              #: ``(N,)`` multi-adds, millions
    params_m: np.ndarray            #: ``(N,)`` parameters, millions
    devices: Tuple[str, ...]        #: device names, aligned with axis 1
    cost: np.ndarray                #: ``(N, D, M)`` per-device cost matrix
    #: ``(L, N)`` genotypes, layer-major, in the smallest unsigned dtype
    #: holding the operator indices (one contiguous row per layer)
    layers: Optional[np.ndarray] = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        if self.layers is None:
            self.layers = _layer_block(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def device_position(self, device: str) -> int:
        """Axis-1 position of ``device``'s costs.

        Archives keep device names as written; a requested name matches a
        stored one when the two are equal or resolve to the same device
        profile (``xavier`` finds costs written as
        ``jetson-agx-xavier-maxn`` and back).  Raises ``ValueError``
        naming the archive's devices when none matches.
        """
        if device in self.devices:
            return self.devices.index(device)
        profile = _profile_name(device)
        if profile is not None:
            for d, name in enumerate(self.devices):
                if _profile_name(name) == profile:
                    return d
        raise ValueError(
            f"device {device!r} has no records in this archive; known "
            f"devices: {', '.join(self.devices) or '(none)'}")

    def device_column(self, device: str, metric: str) -> np.ndarray:
        """The ``(N,)`` column of one per-device cost metric."""
        if metric not in DEVICE_COST_METRICS:
            raise ValueError(
                f"unknown device metric {metric!r}; expected one of "
                f"{DEVICE_COST_METRICS}")
        return self.cost[:, self.device_position(device),
                         DEVICE_COST_METRICS.index(metric)]

    def column(self, metric: str, device: Optional[str] = None) -> np.ndarray:
        """A ``(N,)`` metric column, resolving per-device metrics."""
        if metric in GLOBAL_METRICS:
            return getattr(self, metric)
        if device is None:
            raise ValueError(
                f"metric {metric!r} is per-device; pass device=...")
        return self.device_column(device, metric)


class _LiveIndex:
    """Growable stacked arrays, extended in place on every merge.

    This is the mutable twin of :class:`ArchiveIndex`: appends land in
    amortized O(1) (capacity-doubling), merges into an existing genotype
    write only the affected cells, and new device names insert a NaN
    column at their *sorted* position, so a snapshot's device axis is
    sorted whatever order the devices arrived in.  The layer-major
    ``layers`` block grows with ``ops``, one column per append.  An archive
    with no segment starts from an empty one, whose snapshot is the empty
    index.

    Snapshots are copy-on-write: :meth:`snapshot` hands out read-only
    views of the first ``n`` rows and records that ``shared`` rows are
    covered.  Appends write only rows past them, and growing the capacity
    or inserting a device column allocates fresh arrays, so neither
    touches a view.  Only a merge into a covered row must first move the
    arrays it writes to a copy (:meth:`_detach`), once until the next
    snapshot.  All access is serialized by the owning archive's lock.
    """

    def __init__(self, num_layers: int, num_operators: int,
                 capacity: int = 64) -> None:
        capacity = max(1, capacity)
        self.num_layers = num_layers
        self.n = 0
        self.shared = 0
        self.devices: List[str] = []
        self.ops = np.zeros((capacity, num_layers), dtype=np.int64)
        self.layers = np.zeros((num_layers, capacity),
                               dtype=_layer_dtype(num_operators))
        self.score = np.full(capacity, np.nan)
        self.macs_m = np.full(capacity, np.nan)
        self.params_m = np.full(capacity, np.nan)
        self.cost = np.full((capacity, 0, len(DEVICE_COST_METRICS)), np.nan)

    @classmethod
    def from_segment(cls, segment: Segment,
                     layers: np.ndarray) -> "_LiveIndex":
        n = len(segment)
        live = cls(segment.num_layers, segment.num_operators,
                   capacity=n + 64)
        live.n = n
        live.devices = list(segment.devices)
        live.ops[:n] = segment.ops
        live.layers[:, :n] = layers
        live.score[:n] = segment.score
        live.macs_m[:n] = segment.macs_m
        live.params_m[:n] = segment.params_m
        cost = np.full((n + 64, len(segment.devices),
                        len(DEVICE_COST_METRICS)), np.nan)
        cost[:n] = segment.cost
        live.cost = cost
        return live

    # ------------------------------------------------------------------
    def _grow_rows(self, need: int) -> None:
        capacity = len(self.score)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2

        def widen(array: np.ndarray, fill) -> np.ndarray:
            fresh = np.full((capacity,) + array.shape[1:], fill,
                            dtype=array.dtype)
            fresh[:self.n] = array[:self.n]
            return fresh

        self.ops = widen(self.ops, 0)
        layers = np.zeros((self.num_layers, capacity),
                          dtype=self.layers.dtype)
        layers[:, :self.n] = self.layers[:, :self.n]
        self.layers = layers
        self.score = widen(self.score, np.nan)
        self.macs_m = widen(self.macs_m, np.nan)
        self.params_m = widen(self.params_m, np.nan)
        self.cost = widen(self.cost, np.nan)
        self.shared = 0  # every view is on the old arrays

    def _detach(self) -> None:
        """Move the arrays a merge writes in place to copies, leaving the
        outstanding snapshot views on the old ones."""
        self.score = self.score.copy()
        self.macs_m = self.macs_m.copy()
        self.params_m = self.params_m.copy()
        self.cost = self.cost.copy()
        self.shared = 0

    def ensure_device(self, name: str) -> int:
        pos = bisect_left(self.devices, name)
        if pos < len(self.devices) and self.devices[pos] == name:
            return pos
        self.devices.insert(pos, name)
        self.cost = np.insert(self.cost, pos, np.nan, axis=1)
        return pos

    # ------------------------------------------------------------------
    def append(self, record: ArchRecord) -> int:
        self._grow_rows(self.n + 1)
        row = self.n
        self.ops[row] = record.op_indices
        self.layers[:, row] = record.op_indices
        self.n += 1
        self.update(row, record)
        return row

    def update(self, row: int, record: ArchRecord) -> None:
        if row < self.shared:
            self._detach()
        if record.score is not None:
            self.score[row] = record.score
        if record.macs_m is not None:
            self.macs_m[row] = record.macs_m
        if record.params_m is not None:
            self.params_m[row] = record.params_m
        for device, metrics in record.devices.items():
            d = self.ensure_device(device)
            for metric, value in metrics.items():
                m = _METRIC_POS.get(metric)
                if m is not None:
                    self.cost[row, d, m] = value

    def snapshot(self, keys: Tuple[str, ...]) -> ArchiveIndex:
        n = self.n
        self.shared = n
        return ArchiveIndex(ops=_read_only(self.ops[:n]), keys=keys,
                            score=_read_only(self.score[:n]),
                            macs_m=_read_only(self.macs_m[:n]),
                            params_m=_read_only(self.params_m[:n]),
                            devices=tuple(self.devices),
                            cost=_read_only(self.cost[:n]),
                            layers=_read_only(self.layers[:, :n]))


def _read_only(view: np.ndarray) -> np.ndarray:
    view.setflags(write=False)
    return view


# ----------------------------------------------------------------------
# WAL repair
# ----------------------------------------------------------------------

def repair_archive(path: str) -> int:
    """Truncate a crash-damaged archive to its longest valid prefix.

    Returns the number of lines dropped.  Raises :class:`ArchiveError` if
    even the header line is unreadable (nothing to salvage).  A segment
    compacted past the repaired length stops matching the log and is
    reported loudly on the next open (delete the segment directory and
    recompact).
    """
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        raw = handle.read()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    valid: List[str] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            _unframe(line, path, lineno)
        except ArchiveError:
            break
        valid.append(line)
    if not valid:
        raise ArchiveError(
            f"archive {path!r} has an unreadable header — nothing to "
            f"salvage; delete the file")
    dropped = len(lines) - len(valid)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".archive.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(valid) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return dropped


# ----------------------------------------------------------------------
# The archive
# ----------------------------------------------------------------------

class ArchitectureArchive:
    """Open (or create) an on-disk architecture archive.

    Parameters
    ----------
    path:
        Archive file (created with a header if missing).
    num_layers / num_operators:
        Space geometry.  Required when creating a new archive; when opening
        an existing one they are validated against the header (a mismatch
        raises :class:`ArchiveError` — records from another space would be
        silently meaningless).  Pass ``space=`` as a convenience instead.
    read_only:
        Open without an append handle: writes raise :class:`ArchiveError`.
        This is how serving workers share one archive — no writer, no
        multi-process append hazard.
    use_segments:
        When ``False``, ignore any compacted segment and boot by replaying
        the full log (the pre-segment behaviour; the boot benchmark uses
        this as its baseline).

    The instance is thread-safe: appends, merges, and index snapshots are
    serialized by an internal lock, and :meth:`index` returns immutable
    snapshots.
    """

    def __init__(self, path: str,
                 num_layers: Optional[int] = None,
                 num_operators: Optional[int] = None,
                 space=None, *,
                 read_only: bool = False,
                 use_segments: bool = True) -> None:
        if space is not None:
            num_layers = space.num_layers
            num_operators = space.num_operators
        self.path = path
        self.read_only = bool(read_only)
        self._use_segments = bool(use_segments)
        self._lock = threading.RLock()
        # key → index row, in row (first-seen) order
        self._row_of: Dict[str, int] = {}
        self._segment: Optional[Segment] = None
        self._segment_layers: Optional[np.ndarray] = None
        self._live: Optional[_LiveIndex] = None
        self._snapshot: Optional[ArchiveIndex] = None
        self.boot: Dict[str, object] = {"mode": "new", "tail_records": 0}
        if os.path.exists(path):
            self._replay(num_layers, num_operators)
        else:
            if self.read_only:
                raise ArchiveError(
                    f"archive {path!r} does not exist — a read-only open "
                    f"cannot create it")
            if num_layers is None or num_operators is None:
                raise ArchiveError(
                    f"creating archive {path!r} requires the space geometry "
                    f"(num_layers and num_operators, or space=...)")
            self.num_layers = int(num_layers)
            self.num_operators = int(num_operators)
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            header = {"magic": ARCHIVE_MAGIC, "version": ARCHIVE_VERSION,
                      "num_layers": self.num_layers,
                      "num_operators": self.num_operators}
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(_frame(json.dumps(header)))
        self._handle = (None if self.read_only else
                        open(path, "a", encoding="utf-8", newline="\n"))

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def _replay(self, num_layers: Optional[int],
                num_operators: Optional[int]) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if not raw:
            raise ArchiveError(
                f"archive {self.path!r} is empty — it was created but never "
                f"wrote a header; delete the file")
        if not raw.endswith(b"\n"):
            last_lineno = raw.count(b"\n") + 1
            raise ArchiveError(
                f"{self.path}:{last_lineno}: final line has no newline — a "
                f"writer crashed mid-append; run "
                f"repair_archive({self.path!r}) to truncate the damaged "
                f"tail, or delete the file")
        header_end = raw.index(b"\n") + 1
        header = _unframe(raw[:header_end - 1].decode("utf-8"), self.path, 1)
        if header.get("magic") != ARCHIVE_MAGIC:
            raise ArchiveError(
                f"{self.path!r} is not an architecture archive (bad magic "
                f"{header.get('magic')!r})")
        if header.get("version") != ARCHIVE_VERSION:
            raise ArchiveError(
                f"archive {self.path!r} has format version "
                f"{header.get('version')!r}, expected {ARCHIVE_VERSION} — "
                f"it was written by an incompatible version of this library")
        self.num_layers = int(header["num_layers"])
        self.num_operators = int(header["num_operators"])
        if num_layers is not None and (
                (num_layers, num_operators)
                != (self.num_layers, self.num_operators)):
            raise ArchiveError(
                f"archive {self.path!r} holds a {self.num_layers}-layer / "
                f"{self.num_operators}-operator space, but this run uses "
                f"{num_layers} layers / {num_operators} operators — use a "
                f"separate archive per space geometry")

        segment = None
        if self._use_segments:
            segment = load_current_segment(
                self.path, num_layers=self.num_layers,
                num_operators=self.num_operators,
                cost_metrics=DEVICE_COST_METRICS)
        if segment is not None and segment.wal_offset >= header_end:
            self._adopt_segment(segment, raw)
        else:
            self._full_replay(raw, header_end)

    def _adopt_segment(self, segment: Segment, raw: bytes) -> None:
        """Boot from the mmap'd segment, replaying only the WAL tail."""
        self._segment = segment
        self._segment_layers = _read_only(_layer_block(
            segment.ops, _layer_dtype(self.num_operators)))
        self._row_of = {key: row for row, key in enumerate(segment.keys)}
        tail = raw[segment.wal_offset:]
        tail_lines = tail.decode("utf-8").split("\n")[:-1] if tail else []
        lineno = raw[:segment.wal_offset].count(b"\n")
        for offset, line in enumerate(tail_lines, start=1):
            self._merge(self._parse_record(line, lineno + offset))
        self.boot = {"mode": "segment", "segment": segment.path,
                     "segment_records": len(segment),
                     "tail_records": len(tail_lines)}

    def _full_replay(self, raw: bytes, header_end: int) -> None:
        lines = raw[header_end:].decode("utf-8").split("\n")[:-1]
        for lineno, line in enumerate(lines, start=2):
            self._merge(self._parse_record(line, lineno))
        self.boot = {"mode": "log-replay", "tail_records": len(lines)}

    def _parse_record(self, line: str, lineno: int) -> ArchRecord:
        payload = _unframe(line, self.path, lineno)
        try:
            record = ArchRecord.from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(
                f"{self.path}:{lineno}: CRC-valid but malformed record "
                f"({exc}) — the file was written by an incompatible "
                f"version; delete it") from exc
        if len(record.op_indices) != self.num_layers:
            raise ArchiveError(
                f"{self.path}:{lineno}: record has "
                f"{len(record.op_indices)} layers, header says "
                f"{self.num_layers} — the file is inconsistent")
        return record

    # ------------------------------------------------------------------
    # Incremental merge (caller must hold the lock during boot; public
    # entry points take it)
    # ------------------------------------------------------------------
    def _live_index(self) -> _LiveIndex:
        if self._live is None:
            if self._segment is not None:
                self._live = _LiveIndex.from_segment(self._segment,
                                                     self._segment_layers)
            else:
                self._live = _LiveIndex(self.num_layers, self.num_operators)
        return self._live

    def _merge(self, record: ArchRecord) -> None:
        """Give a new genotype the next row; write a known one's fields
        into its row (later values win, cell by cell)."""
        with self._lock:
            row = self._row_of.get(record.key)
            if row is None:
                self._row_of[record.key] = self._live_index().append(record)
            else:
                self._live_index().update(row, record)
            self._snapshot = None

    def _require_writable(self, what: str) -> None:
        if self._handle is None:
            raise ArchiveError(
                f"archive {self.path!r} is open read-only — {what} needs a "
                f"writable archive")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def add_record(self, record: ArchRecord, flush: bool = True) -> None:
        """Append one record to the WAL and merge it into the index.

        The record may come from anywhere, so its key is checked against
        its op_indices first."""
        self._check_layers(record)
        if record.key != arch_key(record.op_indices, self.num_operators):
            raise ValueError("record key does not match its op_indices")
        self._append(record, flush)

    def _check_layers(self, record: ArchRecord) -> None:
        if len(record.op_indices) != self.num_layers:
            raise ValueError(
                f"record has {len(record.op_indices)} layers, archive "
                f"expects {self.num_layers}")

    def _append(self, record: ArchRecord, flush: bool) -> None:
        """Write ``record`` to the WAL and merge it; its key is trusted."""
        with self._lock:
            self._require_writable("add_record")
            self._handle.write(_frame(json.dumps(record.to_payload())))
            if flush:
                self._handle.flush()
            self._merge(record)

    def add(self, op_indices: Sequence[int], *,
            device: Optional[str] = None,
            latency_ms: Optional[float] = None,
            energy_mj: Optional[float] = None,
            measured_latency_ms: Optional[float] = None,
            measured_energy_mj: Optional[float] = None,
            macs_m: Optional[float] = None,
            params_m: Optional[float] = None,
            score: Optional[float] = None,
            engine: str = "", seed: Optional[int] = None,
            config_fingerprint: str = "",
            flush: bool = True) -> ArchRecord:
        """Record one evaluated architecture (convenience over add_record)."""
        ops = tuple(int(i) for i in op_indices)
        metrics = {name: float(value) for name, value in (
            ("latency_ms", latency_ms), ("energy_mj", energy_mj),
            ("measured_latency_ms", measured_latency_ms),
            ("measured_energy_mj", measured_energy_mj),
        ) if value is not None}
        if metrics and device is None:
            raise ValueError("per-device metrics require device=...")
        provenance: Dict[str, object] = {}
        if engine:
            provenance["engine"] = engine
        if seed is not None:
            provenance["seed"] = int(seed)
        if config_fingerprint:
            provenance["fingerprint"] = config_fingerprint
        record = ArchRecord(
            op_indices=ops,
            key=arch_key(ops, self.num_operators),
            devices={device: metrics} if metrics else {},
            macs_m=None if macs_m is None else float(macs_m),
            params_m=None if params_m is None else float(params_m),
            score=None if score is None else float(score),
            provenance=provenance,
        )
        # the key was computed from these op_indices just above
        self._check_layers(record)
        self._append(record, flush)
        return record

    def add_population(self, ops: np.ndarray, *,
                       device: Optional[str] = None,
                       latency_ms: Optional[np.ndarray] = None,
                       energy_mj: Optional[np.ndarray] = None,
                       measured_latency_ms: Optional[np.ndarray] = None,
                       measured_energy_mj: Optional[np.ndarray] = None,
                       macs_m: Optional[np.ndarray] = None,
                       params_m: Optional[np.ndarray] = None,
                       score: Optional[np.ndarray] = None,
                       engine: str = "", seed: Optional[int] = None,
                       config_fingerprint: str = "") -> int:
        """Record a whole population with aligned per-arch metric arrays.

        Serialisation is necessarily per-record, but the file is flushed
        once for the whole batch; returns the number of records written.
        """
        ops = np.asarray(ops, dtype=np.int64)
        if ops.ndim != 2 or ops.shape[1] != self.num_layers:
            raise ValueError(
                f"ops must be (N, {self.num_layers}), got {ops.shape}")
        self._require_writable("add_population")

        def cell(array, i):
            return None if array is None else float(array[i])

        with self._lock:
            for i, row in enumerate(ops.tolist()):
                self.add(row, device=device,
                         latency_ms=cell(latency_ms, i),
                         energy_mj=cell(energy_mj, i),
                         measured_latency_ms=cell(measured_latency_ms, i),
                         measured_energy_mj=cell(measured_energy_mj, i),
                         macs_m=cell(macs_m, i), params_m=cell(params_m, i),
                         score=cell(score, i),
                         engine=engine, seed=seed,
                         config_fingerprint=config_fingerprint, flush=False)
            self._handle.flush()
        return len(ops)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> str:
        """Cut a fresh segment covering the entire WAL written so far.

        The next open of this archive mmaps the segment and replays only
        lines appended after this call.  Returns the committed segment
        directory.  Requires a writable archive (compaction must pin the
        exact WAL offset it covers).
        """
        with self._lock:
            self._require_writable("compact")
            self._handle.flush()
            wal_offset = os.path.getsize(self.path)
            snapshot = self.index()
            return write_segment(
                self.path,
                num_layers=self.num_layers,
                num_operators=self.num_operators,
                devices=snapshot.devices,
                cost_metrics=DEVICE_COST_METRICS,
                keys=snapshot.keys,
                ops=snapshot.ops, cost=snapshot.cost,
                score=snapshot.score, macs_m=snapshot.macs_m,
                params_m=snapshot.params_m, wal_offset=wal_offset)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._row_of)

    def __contains__(self, op_indices) -> bool:
        key = arch_key(tuple(op_indices), self.num_operators)
        with self._lock:
            return key in self._row_of

    def index(self) -> ArchiveIndex:
        """A read-only stacked snapshot (cached until the next write).

        When the archive booted from a segment and nothing was appended
        since, the snapshot's arrays are the mmap'd segment arrays — zero
        copies, shared across worker processes — plus the layer block the
        boot built.  After writes it holds read-only views of the first
        rows of the incrementally-extended live arrays: building it copies
        no array, and later writes leave it unchanged (see
        :class:`_LiveIndex`).
        """
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self._build_snapshot()
            return self._snapshot

    def _build_snapshot(self) -> ArchiveIndex:
        if self._live is None and self._segment is not None:
            segment = self._segment
            return ArchiveIndex(
                ops=segment.ops, keys=segment.keys, score=segment.score,
                macs_m=segment.macs_m, params_m=segment.params_m,
                devices=segment.devices, cost=segment.cost,
                layers=self._segment_layers)
        return self._live_index().snapshot(tuple(self._row_of))

    def stats(self) -> dict:
        """Summary counters for the ``/stats`` endpoint and ``repro query``."""
        index = self.index()
        per_device = {
            device: int(np.isfinite(
                index.cost[:, d, :]).any(axis=1).sum())
            for d, device in enumerate(index.devices)
        }
        return {
            "path": self.path,
            "records": len(self),
            "num_layers": self.num_layers,
            "num_operators": self.num_operators,
            "devices": per_device,
            "with_score": int(np.isfinite(index.score).sum()),
            "with_macs": int(np.isfinite(index.macs_m).sum()),
            "read_only": self.read_only,
            "boot": dict(self.boot),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._handle is None or self._handle.closed

    def __enter__(self) -> "ArchitectureArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
