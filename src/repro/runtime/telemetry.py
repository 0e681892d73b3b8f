"""Structured run telemetry: a JSON-lines event journal + phase timers.

Every search engine can write one **journal** per run: a plain-text file
with one JSON object per line, append-only and flushed per event, so a
crashed run leaves a readable record up to the crash.  Event kinds:

``run_header``
    Opens a run: engine name, config digest, seed, library versions.
``epoch``
    One record per search epoch: predicted metric, λ, τ, the epoch's true
    mean validation loss, the derived architecture, wall time.
``checkpoint``
    A checkpoint was written (epoch + path).
``run_end``
    Closes a run: final metric/λ, total wall time, per-phase timer
    aggregates.

:class:`NullJournal` is the no-op twin — engines call it unconditionally
and pay only an attribute lookup plus an empty method call per event, so
telemetry-off runs stay at full speed.  :func:`read_journal` and
:func:`summarize_runs` back the ``python -m repro trace-summary`` CLI.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..nn.profiler import merge_profiles

__all__ = ["PhaseTimers", "RunJournal", "NullJournal", "read_journal",
           "summarize_fleet", "summarize_runs"]


class PhaseTimers:
    """Lightweight context-manager timers aggregated per phase name.

    >>> timers = PhaseTimers()
    >>> with timers.phase("update_alpha"):
    ...     pass
    >>> timers.as_dict()["update_alpha"]["calls"]
    1
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"total_s": ..., "calls": ...}}`` for the journal."""
        return {
            name: {"total_s": round(self._totals[name], 6),
                   "calls": self._counts[name]}
            for name in sorted(self._totals)
        }


class RunJournal:
    """Append-only JSON-lines event writer for one or more runs."""

    enabled = True

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")
        self._start = time.perf_counter()

    # ------------------------------------------------------------------
    def event(self, kind: str, **fields: object) -> None:
        """Write one event line (flushed, so crashes lose nothing)."""
        record: Dict[str, object] = {
            "event": kind,
            "elapsed_s": round(time.perf_counter() - self._start, 6),
        }
        record.update(fields)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def run_header(self, engine: str, **fields: object) -> None:
        self.event(
            "run_header",
            engine=engine,
            python=sys.version.split()[0],
            numpy=np.__version__,
            unix_time=round(time.time(), 3),
            **fields,
        )

    def epoch(self, **fields: object) -> None:
        self.event("epoch", **fields)

    def run_end(self, **fields: object) -> None:
        self.event("run_end", **fields)

    def append_lines(self, lines) -> None:
        """Append pre-formatted JSON-lines events verbatim (one flush).

        Used by the :class:`~repro.runtime.parallel.RunFleet` merge: each
        task's journal already holds well-formed event lines whose
        ``elapsed_s`` is relative to the *task's* start, and re-encoding
        them would only risk perturbing float reprs.
        """
        for line in lines:
            line = line.rstrip("\n")
            if line:
                self._handle.write(line + "\n")
        self._handle.flush()

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullJournal(RunJournal):
    """No-op journal: every event is a single empty method call."""

    enabled = False

    def __init__(self) -> None:  # no file, no clock
        self.path = None

    def event(self, kind: str, **fields: object) -> None:
        pass

    def run_header(self, engine: str, **fields: object) -> None:
        pass

    def epoch(self, **fields: object) -> None:
        pass

    def run_end(self, **fields: object) -> None:
        pass

    def append_lines(self, lines) -> None:
        pass

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def read_journal(path: str) -> List[dict]:
    """Parse a JSON-lines journal; loud on malformed lines."""
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed journal line ({exc})"
                ) from exc
    return events


def summarize_runs(events: List[dict]) -> List[dict]:
    """Digest a journal into one summary dict per run.

    Runs are delimited by ``run_header`` events (a sweep journal holds
    several).  Epoch records before the first header (possible only for a
    hand-edited file) are ignored.  In a merged :class:`~repro.runtime.
    parallel.RunFleet` journal each run follows its ``task_header``; the
    task attribution (index, name, target/seed/... extras) is attached to
    the run summary as ``run["task"]``, and the fleet-level ``run_end``
    (the one carrying ``fleet_stats``) is kept out of per-run fields —
    read it with :func:`summarize_fleet`.
    """
    summaries: List[dict] = []
    current: Optional[dict] = None
    pending_task: Optional[dict] = None
    for event in events:
        kind = event.get("event")
        if kind == "task_header":
            pending_task = {key: value for key, value in event.items()
                            if key not in ("event", "elapsed_s")}
            continue
        if kind == "run_end" and event.get("fleet_stats") is not None:
            continue  # fleet-level close, not part of any single run
        if kind == "run_header":
            current = {
                "engine": event.get("engine", "?"),
                "target": event.get("target"),
                "metric_name": event.get("metric_name"),
                "seed": event.get("seed"),
                "batch_slots": event.get("batch_slots"),
                "resumed_from_epoch": event.get("start_epoch") or None,
                "epochs_recorded": 0,
                "checkpoints_written": 0,
                "final_predicted_metric": None,
                "final_lambda": None,
                "final_valid_loss": None,
                "architecture": None,
                "wall_time_s": None,
                "phase_timers": {},
                "op_profile": {},
                "layer_profile": {},
                "plan_stats": {},
                "task": pending_task,
            }
            pending_task = None
            summaries.append(current)
        elif current is None:
            continue
        elif kind == "epoch":
            current["epochs_recorded"] += 1
            current["final_predicted_metric"] = event.get("predicted_metric")
            current["final_lambda"] = event.get("lambda")
            current["final_valid_loss"] = event.get("valid_loss")
            current["architecture"] = event.get("architecture")
            for key in ("op_profile", "layer_profile"):
                if event.get(key):
                    current[key] = merge_profiles(current[key], event[key])
        elif kind == "checkpoint":
            current["checkpoints_written"] += 1
        elif kind == "run_end":
            current["wall_time_s"] = event.get("wall_time_s",
                                               event.get("elapsed_s"))
            current["phase_timers"] = event.get("phase_timers", {})
            for key in ("final_predicted_metric", "final_lambda",
                        "architecture", "plan_stats"):
                if event.get(key) is not None:
                    current[key] = event[key]
    return summaries


def summarize_fleet(events: List[dict]) -> Optional[dict]:
    """Digest a merged run-fleet journal into one pool summary.

    Returns ``None`` for ordinary (non-fleet) journals.  Fields: ``jobs``,
    ``tasks`` (``task_header`` digests in task order), ``retries``
    (``task_retry`` events), ``stats`` (the ``fleet_stats`` payload of the
    fleet-level ``run_end``) and ``phase_timers`` (aggregated across
    tasks).
    """
    fleet: Optional[dict] = None
    for event in events:
        kind = event.get("event")
        if kind == "fleet_header":
            fleet = {
                "jobs": event.get("jobs"),
                "declared_tasks": event.get("tasks"),
                "tasks": [],
                "retries": [],
                "stats": {},
                "phase_timers": {},
            }
        elif fleet is None:
            continue
        elif kind == "task_header":
            fleet["tasks"].append(
                {key: value for key, value in event.items()
                 if key not in ("event", "elapsed_s")})
        elif kind == "task_retry":
            fleet["retries"].append(
                {key: value for key, value in event.items()
                 if key not in ("event", "elapsed_s")})
        elif kind == "run_end" and event.get("fleet_stats") is not None:
            fleet["stats"] = event["fleet_stats"]
            fleet["phase_timers"] = event.get("phase_timers", {})
    return fleet
