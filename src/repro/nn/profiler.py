"""Lightweight per-op profiler for the :mod:`repro.nn` engine.

:func:`profile` opens a context during which every primitive op in
:mod:`repro.nn.ops` records its wall time and call count under its op kind
(``conv2d_dw``, ``matmul``, …); backward closures executed by
:meth:`Tensor.backward` are recorded under ``<kind>.bwd``.  Outside the
context the instrumentation cost is one module-attribute check per op call,
so training speed is unaffected when profiling is off.

Model code may also record coarser spans with
:meth:`OpProfile.record_layer` — the supernet records each choice block's
forward under ``layer <l>/<op>``.  Layer spans overlap the op times inside
them, so they are kept apart from the op kinds (:meth:`OpProfile.layers`).

The aggregate feeds the search engines' journal epochs
(``LightNASConfig(profile_ops=True)``: ``op_profile`` and
``layer_profile``) and is rendered by ``python -m repro trace-summary
--ops``.

>>> from repro import nn
>>> with nn.profiler.profile() as prof:
...     _ = nn.Tensor([1.0]) + nn.Tensor([2.0])
>>> prof.as_dict()["add"]["calls"]
1
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["OpProfile", "profile", "active_profile", "merge_profiles"]

#: the currently-open profile, or None (checked by ops.py per call)
_active: Optional["OpProfile"] = None


class OpProfile:
    """Wall-time and call-count aggregate keyed by op kind."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._bytes: Dict[str, int] = {}
        self._layer_totals: Dict[str, float] = {}
        self._layer_counts: Dict[str, int] = {}

    def record(self, kind: str, elapsed_s: float, nbytes: int = 0) -> None:
        self._totals[kind] = self._totals.get(kind, 0.0) + elapsed_s
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if nbytes:
            self._bytes[kind] = self._bytes.get(kind, 0) + nbytes

    def record_layer(self, key: str, elapsed_s: float) -> None:
        """Record one model-layer span (not an op kind; see :meth:`layers`)."""
        self._layer_totals[key] = self._layer_totals.get(key, 0.0) + elapsed_s
        self._layer_counts[key] = self._layer_counts.get(key, 0) + 1

    def __len__(self) -> int:
        return len(self._totals)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {"total_ms", "calls", "mean_ms", "alloc_bytes"}}``.

        Sorted by descending total time.  ``alloc_bytes`` counts the bytes of
        every freshly-materialised op output (eager steps allocate each
        output anew; replayed step plans write into arena buffers instead
        and record ~0 here).
        """
        out = _rows(self._totals, self._counts)
        for kind, row in out.items():
            row["alloc_bytes"] = int(self._bytes.get(kind, 0))
        return out

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{layer key: {"total_ms", "calls", "mean_ms"}}`` of the
        :meth:`record_layer` spans, sorted by descending total time."""
        return _rows(self._layer_totals, self._layer_counts)


def _rows(totals: Dict[str, float],
          counts: Dict[str, int]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for key in sorted(totals, key=totals.get, reverse=True):
        total_ms = totals[key] * 1e3
        calls = counts[key]
        out[key] = {
            "total_ms": round(total_ms, 4),
            "calls": calls,
            "mean_ms": round(total_ms / calls, 6),
        }
    return out


def active_profile() -> Optional[OpProfile]:
    """The profile currently collecting, or None when profiling is off."""
    return _active


@contextmanager
def profile(target: Optional[OpProfile] = None) -> Iterator[OpProfile]:
    """Collect per-op timings for the duration of the context.

    Pass an existing :class:`OpProfile` as ``target`` to accumulate across
    several contexts (e.g. one profile per search epoch).  Nested contexts
    simply stack: the innermost target collects.
    """
    global _active
    prof = target if target is not None else OpProfile()
    previous = _active
    _active = prof
    try:
        yield prof
    finally:
        _active = previous


def merge_profiles(acc: Dict[str, Dict[str, float]],
                   update: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Merge two :meth:`OpProfile.as_dict` payloads (totals and calls add)."""
    for kind, row in update.items():
        slot = acc.setdefault(kind, {"total_ms": 0.0, "calls": 0, "mean_ms": 0.0})
        slot["total_ms"] = round(slot["total_ms"] + row.get("total_ms", 0.0), 4)
        slot["calls"] = int(slot["calls"]) + int(row.get("calls", 0))
        if slot["calls"]:
            slot["mean_ms"] = round(slot["total_ms"] / slot["calls"], 6)
        # alloc_bytes arrived with the step-plan work; tolerate old payloads
        new_bytes = int(row.get("alloc_bytes", 0))
        if new_bytes or "alloc_bytes" in slot:
            slot["alloc_bytes"] = int(slot.get("alloc_bytes", 0)) + new_bytes
    return acc
