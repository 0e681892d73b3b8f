"""Run-time infrastructure for the search engines.

"You only search once" makes one search run the unit of value — a crashed
run at epoch 85/90 loses everything, and an unobserved run cannot be
debugged after the fact.  This subpackage supplies the two pieces every
engine shares:

* :mod:`repro.runtime.checkpoint` — atomic ``.npz`` snapshots of the full
  search state (parameters, optimizer moments, RNG bit-generator state,
  trajectory, counters) with config fingerprinting, so an interrupted run
  resumes **bit-for-bit** identical to an uninterrupted one.
* :mod:`repro.runtime.telemetry` — a JSON-lines event journal (run header,
  per-epoch records, checkpoint markers, phase-timer aggregates) with a
  near-zero-cost no-op mode, plus a reader for ``python -m repro
  trace-summary``.
* :mod:`repro.runtime.parallel` — the :class:`~repro.runtime.parallel.
  RunFleet` executor fanning the searches of a grid (sweep targets,
  stability seeds) across forked worker processes, bit-identical to the
  sequential run and fault-tolerant.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    fingerprint_of,
    latest_checkpoint,
    load_checkpoint,
    resolve_checkpoint,
    restore_rng,
    rng_state_json,
    save_checkpoint,
)
from .parallel import (
    FleetReport,
    FleetTask,
    RunFleet,
    TaskContext,
    TaskFailure,
    TaskResult,
)
from .telemetry import (
    NullJournal,
    PhaseTimers,
    RunJournal,
    read_journal,
    summarize_fleet,
    summarize_runs,
)

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "fingerprint_of",
    "latest_checkpoint",
    "load_checkpoint",
    "resolve_checkpoint",
    "restore_rng",
    "rng_state_json",
    "save_checkpoint",
    "FleetReport",
    "FleetTask",
    "NullJournal",
    "PhaseTimers",
    "RunFleet",
    "RunJournal",
    "TaskContext",
    "TaskFailure",
    "TaskResult",
    "read_journal",
    "summarize_fleet",
    "summarize_runs",
]
