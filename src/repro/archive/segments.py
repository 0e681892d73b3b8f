"""Memory-mapped archive segments: the compacted read path of the store.

The JSON-lines archive file is the **write-ahead log** (WAL): append-only,
CRC-framed, crash-safe — but replaying it on every open means boot cost
grows with history.  A *segment* is a compacted snapshot of the merged
archive state written as plain ``.npy`` arrays that :func:`numpy.load` can
memory-map: opening a segment-backed archive is an mmap plus a replay of
only the WAL lines appended *after* the segment was cut, instead of a
full-log parse.  Because the arrays are mmap'd read-only, multiple serving
processes (``repro serve --workers N``) share one physical copy of the
index through the page cache.

Layout (``<archive>.segments/``)::

    CURRENT                 one CRC-framed JSON line naming the live segment
    seg-0000000001/
        manifest.json       CRC-framed geometry + WAL binding
        ops.npy             (N, L) int64 genotypes
        cost.npy            (N, D, M) float64 per-device cost matrix
        score.npy           (N,) float64
        macs_m.npy          (N,) float64
        params_m.npy        (N,) float64
        keys.npy            (N,) S16 content addresses

A segment holds only the stacked index; every other field of a record
(provenance included) stays in the WAL.  Segments written by older builds
also hold an ``aux.jsonl`` of full record payloads; nothing reads it.

Design rules, shared with :mod:`repro.archive.store`:

* **Atomic commit** — a segment is staged in a temp directory, renamed into
  place, and only then does ``CURRENT`` flip to it (temp-file +
  ``os.replace``), so a crashed compaction never leaves a half segment
  visible.  Superseded segments are garbage-collected after the flip.
* **Content binding** — the manifest records the WAL byte offset it covers
  *and* a CRC of the WAL bytes just before that offset, so a segment can
  never be silently applied to a different (rewritten, repaired, replaced)
  log: a mismatch raises :class:`ArchiveError` naming the remedy.
* **Loud failures** — a corrupt ``CURRENT``, manifest, or array raises
  :class:`ArchiveError`; the store never silently falls back to a state
  that could diverge from the log.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "ArchiveError",
    "Segment",
    "load_current_segment",
    "segment_root_for",
    "write_segment",
]

SEGMENT_MAGIC = "repro-archive-segment"
SEGMENT_VERSION = 1

#: how many WAL bytes immediately before the covered offset are checksummed
#: into the manifest to bind a segment to its exact log content
WAL_CHECK_WINDOW = 4096

_ARRAY_FILES = ("ops", "cost", "score", "macs_m", "params_m", "keys")


class ArchiveError(RuntimeError):
    """An archive could not be written, read, or matched to this space."""


# ----------------------------------------------------------------------
# CRC line framing (shared with the WAL in store.py)
# ----------------------------------------------------------------------

def frame_line(payload: str) -> str:
    """One CRC-32-prefixed line: ``<crc8hex> <payload>\\n``."""
    return f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"


def unframe_line(line: str, path: str, lineno: int) -> dict:
    """Parse one framed line back to its JSON payload, loudly."""
    crc, sep, payload = line.partition(" ")
    if not sep or len(crc) != 8:
        raise ArchiveError(
            f"{path}:{lineno}: malformed archive line (no CRC frame) — the "
            f"file is corrupt or truncated; run repair_archive({path!r}) to "
            f"truncate the damaged tail, or delete the file")
    try:
        expected = int(crc, 16)
    except ValueError:
        raise ArchiveError(
            f"{path}:{lineno}: malformed CRC prefix {crc!r} — the file is "
            f"corrupt; run repair_archive({path!r}) to truncate the damaged "
            f"tail, or delete the file") from None
    if zlib.crc32(payload.encode("utf-8")) != expected:
        raise ArchiveError(
            f"{path}:{lineno}: CRC mismatch — the line is corrupt or "
            f"truncated; run repair_archive({path!r}) to truncate the "
            f"damaged tail, or delete the file")
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ArchiveError(
            f"{path}:{lineno}: CRC-valid but unparsable JSON ({exc}); the "
            f"file was written by an incompatible version — delete it"
        ) from exc


# ----------------------------------------------------------------------
# Segment objects
# ----------------------------------------------------------------------

@dataclass
class Segment:
    """One loaded (memory-mapped) segment.

    The arrays are read-only mmap views — queries can run on them directly
    with zero copies, and forked worker processes share the pages.
    """

    path: str
    num_layers: int
    num_operators: int
    devices: Tuple[str, ...]
    keys: Tuple[str, ...]
    wal_offset: int                 #: WAL bytes folded into this segment
    wal_check_crc: int              #: CRC-32 of the WAL bytes before offset
    ops: np.ndarray                 #: ``(N, L)`` int64, mmap'd
    cost: np.ndarray                #: ``(N, D, M)`` float64, mmap'd
    score: np.ndarray               #: ``(N,)`` float64, mmap'd
    macs_m: np.ndarray              #: ``(N,)`` float64, mmap'd
    params_m: np.ndarray            #: ``(N,)`` float64, mmap'd

    def __len__(self) -> int:
        return len(self.keys)


def segment_root_for(archive_path: str) -> str:
    """Where an archive's segments live (``<archive>.segments/``)."""
    return archive_path + ".segments"


def _current_path(root: str) -> str:
    return os.path.join(root, "CURRENT")


def _wal_check_crc(wal_path: str, offset: int) -> int:
    """CRC-32 of the last ``WAL_CHECK_WINDOW`` WAL bytes before ``offset``."""
    window = min(WAL_CHECK_WINDOW, offset)
    with open(wal_path, "rb") as handle:
        handle.seek(offset - window)
        return zlib.crc32(handle.read(window))


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def write_segment(archive_path: str, *,
                  num_layers: int, num_operators: int,
                  devices: Sequence[str], cost_metrics: Sequence[str],
                  keys: Sequence[str],
                  ops: np.ndarray, cost: np.ndarray, score: np.ndarray,
                  macs_m: np.ndarray, params_m: np.ndarray,
                  wal_offset: int) -> str:
    """Atomically write a new segment and flip ``CURRENT`` to it.

    ``wal_offset`` must be the archive file's byte length at the moment the
    passed state was captured (every line below that offset is folded into
    the arrays).  Returns the committed segment directory.
    """
    n = len(keys)
    if not (len(ops) == len(cost) == len(score) == len(macs_m)
            == len(params_m) == n):
        raise ValueError("segment arrays and keys must align")
    root = segment_root_for(archive_path)
    os.makedirs(root, exist_ok=True)
    check_crc = _wal_check_crc(archive_path, wal_offset)

    previous = _read_current(root)
    serial = 1
    if previous is not None:
        try:
            serial = int(previous.rsplit("-", 1)[1]) + 1
        except (IndexError, ValueError):
            serial = 1
    name = f"seg-{serial:010d}"
    staging = tempfile.mkdtemp(dir=root, prefix=f"{name}.tmp-")
    try:
        np.save(os.path.join(staging, "ops.npy"),
                np.ascontiguousarray(ops, dtype=np.int64))
        np.save(os.path.join(staging, "cost.npy"),
                np.ascontiguousarray(cost, dtype=np.float64))
        np.save(os.path.join(staging, "score.npy"),
                np.ascontiguousarray(score, dtype=np.float64))
        np.save(os.path.join(staging, "macs_m.npy"),
                np.ascontiguousarray(macs_m, dtype=np.float64))
        np.save(os.path.join(staging, "params_m.npy"),
                np.ascontiguousarray(params_m, dtype=np.float64))
        np.save(os.path.join(staging, "keys.npy"),
                np.asarray([k.encode("ascii") for k in keys], dtype="S16"))
        manifest = {
            "magic": SEGMENT_MAGIC, "version": SEGMENT_VERSION,
            "num_layers": int(num_layers),
            "num_operators": int(num_operators),
            "devices": list(devices),
            "cost_metrics": list(cost_metrics), "records": n,
            "wal_offset": int(wal_offset),
            "wal_check_crc": int(check_crc),
        }
        with open(os.path.join(staging, "manifest.json"), "w",
                  encoding="utf-8", newline="\n") as handle:
            handle.write(frame_line(json.dumps(manifest)))
        final = os.path.join(root, name)
        os.rename(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _write_current(root, name)
    _collect_garbage(root, keep=name)
    return final


def _write_current(root: str, name: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".current.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(frame_line(json.dumps(
                {"magic": SEGMENT_MAGIC, "segment": name})))
        os.replace(tmp, _current_path(root))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_current(root: str) -> Optional[str]:
    path = _current_path(root)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        line = handle.read().rstrip("\n")
    payload = unframe_line(line, path, 1)
    if payload.get("magic") != SEGMENT_MAGIC or "segment" not in payload:
        raise ArchiveError(
            f"{path!r} is not a segment pointer (bad magic "
            f"{payload.get('magic')!r}) — delete the segment directory "
            f"{root!r} and recompact")
    return str(payload["segment"])


def _collect_garbage(root: str, keep: str) -> List[str]:
    """Remove superseded / half-written segment directories."""
    removed = []
    for entry in os.listdir(root):
        full = os.path.join(root, entry)
        if entry == keep or not os.path.isdir(full):
            continue
        if entry.startswith("seg-"):
            shutil.rmtree(full, ignore_errors=True)
            removed.append(entry)
    return removed


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def load_current_segment(archive_path: str, *,
                         num_layers: Optional[int] = None,
                         num_operators: Optional[int] = None,
                         cost_metrics: Optional[Sequence[str]] = None,
                         ) -> Optional[Segment]:
    """The archive's committed segment, mmap'd, or ``None`` if it has none.

    Validates geometry against the archive header values (when given) and
    the WAL binding (offset within the current log, content CRC matches);
    any inconsistency raises :class:`ArchiveError` — a segment that cannot
    be proven to describe a prefix of *this* log must never be served.
    """
    root = segment_root_for(archive_path)
    if not os.path.isdir(root):
        return None
    name = _read_current(root)
    if name is None:
        return None
    directory = os.path.join(root, name)
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8",
                  newline="\n") as handle:
            manifest = unframe_line(handle.read().rstrip("\n"),
                                    manifest_path, 1)
    except OSError as exc:
        raise ArchiveError(
            f"segment {directory!r} is referenced by CURRENT but has no "
            f"readable manifest ({exc}) — delete {root!r} and recompact"
        ) from exc
    if (manifest.get("magic") != SEGMENT_MAGIC
            or manifest.get("version") != SEGMENT_VERSION):
        raise ArchiveError(
            f"{manifest_path!r} has magic/version "
            f"{manifest.get('magic')!r}/{manifest.get('version')!r}, "
            f"expected {SEGMENT_MAGIC!r}/{SEGMENT_VERSION} — it was written "
            f"by an incompatible version; delete {root!r} and recompact")
    if num_layers is not None and (
            (int(manifest["num_layers"]), int(manifest["num_operators"]))
            != (int(num_layers), int(num_operators))):
        raise ArchiveError(
            f"segment {directory!r} holds a {manifest['num_layers']}-layer "
            f"/ {manifest['num_operators']}-operator space but the archive "
            f"header says {num_layers} layers / {num_operators} operators — "
            f"delete {root!r} and recompact")
    manifest_metrics = tuple(str(m) for m in manifest.get("cost_metrics", ()))
    if cost_metrics is not None and manifest_metrics != tuple(cost_metrics):
        raise ArchiveError(
            f"segment {directory!r} stacks cost metrics {manifest_metrics}, "
            f"this library expects {tuple(cost_metrics)} — it was written "
            f"by an incompatible version; delete {root!r} and recompact")
    wal_offset = int(manifest["wal_offset"])
    wal_size = os.path.getsize(archive_path)
    if wal_offset > wal_size:
        raise ArchiveError(
            f"segment {directory!r} covers {wal_offset} WAL bytes but "
            f"{archive_path!r} only has {wal_size} — the log was truncated "
            f"or replaced after compaction; delete {root!r} and recompact "
            f"(or restore the full log)")
    if _wal_check_crc(archive_path, wal_offset) != int(
            manifest["wal_check_crc"]):
        raise ArchiveError(
            f"segment {directory!r} does not match the content of "
            f"{archive_path!r} at offset {wal_offset} — the log was "
            f"rewritten after compaction; delete {root!r} and recompact")

    arrays: Dict[str, np.ndarray] = {}
    for stem in _ARRAY_FILES:
        file = os.path.join(directory, f"{stem}.npy")
        try:
            arrays[stem] = np.load(file, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise ArchiveError(
                f"segment array {file!r} is missing or unreadable ({exc}) — "
                f"delete {root!r} and recompact") from exc
    n = int(manifest["records"])
    devices = tuple(str(d) for d in manifest["devices"])
    expected_shapes = {
        "ops": (n, int(manifest["num_layers"])),
        "cost": (n, len(devices), len(manifest_metrics)),
        "score": (n,), "macs_m": (n,), "params_m": (n,), "keys": (n,),
    }
    for stem, shape in expected_shapes.items():
        if arrays[stem].shape != shape:
            raise ArchiveError(
                f"segment array {stem!r} in {directory!r} has shape "
                f"{arrays[stem].shape}, manifest implies {shape} — the "
                f"segment is damaged; delete {root!r} and recompact")
    return Segment(
        path=directory,
        num_layers=int(manifest["num_layers"]),
        num_operators=int(manifest["num_operators"]),
        devices=devices,
        keys=tuple(k.decode("ascii") for k in arrays["keys"]),
        wal_offset=wal_offset,
        wal_check_crc=int(manifest["wal_check_crc"]),
        ops=arrays["ops"], cost=arrays["cost"], score=arrays["score"],
        macs_m=arrays["macs_m"], params_m=arrays["params_m"],
    )
