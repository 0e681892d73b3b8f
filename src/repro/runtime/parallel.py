"""Parallel run-fleet executor: fork-based fan-out for independent runs.

"You only search once" learns λ instead of tuning it, so every search
of a grid is independent: a λ/target sweep is one search per target, the
Fig. 7 stability study one per (target, seed).  :class:`RunFleet` serves
only such grids (``repro sweep``/``stability --jobs`` and the Fig. 3/
Fig. 7 drivers); fleet calibration and predictor campaigns are
milliseconds of work and run in-process.  It fans the tasks across
``jobs`` worker processes while keeping the results **bit-identical** to
the sequential run:

* **Pre-fork construction + copy-on-write sharing.**  Tasks are plain
  closures built in the parent *before* the workers fork, so big read-only
  state (fitted predictors, per-(layer, op) cost tables, an archive's
  memory-mapped segments) is inherited by every worker through fork
  semantics at ~zero per-worker setup cost.  Nothing is pickled on the way
  *in* — only each task's (small) result comes back through a pipe.
* **Fixed shares.**  Each worker is forked with one contiguous share of
  the tasks (:meth:`RunFleet.shares`) and runs it, in order, through the
  same task loop that ``jobs=1`` runs in-process.  It takes no commands:
  it sends each result down a pipe and exits when its share is done, so
  end-of-file marks the end of a share.  The tasks of a share can pool
  their work: ``run_grid`` stacks a share's searches into one α-step
  (so their journals' ``batch_slots`` and plan counters follow the
  share, not the grid).
* **Deterministic decomposition.**  Parallelism never changes *what* is
  computed, only *where*: each search carries its own seed and owns its
  checkpoint sub-directory, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical values and individually resumable runs.
* **Ordered journal merge.**  Each task writes its own JSON-lines journal
  (same event schema as a sequential run); after the fleet drains, the
  per-task journals are stitched into the caller's
  :class:`~repro.runtime.telemetry.RunJournal` in **task order** behind a
  ``task_header`` event per task, followed by one fleet-level ``run_end``
  carrying pool statistics and the phase timers aggregated across tasks.
  A merged ``jobs=N`` journal is therefore identical to the ``jobs=1``
  journal up to wall-clock fields and worker attribution.
* **Fault tolerance.**  A worker that dies (crash, OOM kill, SIGKILL)
  reaches end-of-file with tasks of its share still pending; the first
  of them is the task it was running.  That task is retried once on a
  fresh worker forked with the rest of the share; a second death reports
  a structured failure, and a fresh worker takes the remaining tasks.
  Exceptions *inside* a task are deterministic, so they are never
  retried — they come back as failed :class:`TaskResult`\\ s with the
  worker's traceback.  Ctrl-C drains the pool: the live workers are
  SIGTERMed, every result they sent before is kept, the tasks without a
  result are marked cancelled, and the journal merge still happens.

``jobs=1`` (the default everywhere) never forks — it runs the identical
task/journal/merge pipeline in-process, so platforms without ``os.fork``
and recorded benchmark results are unaffected.
"""

from __future__ import annotations

import json
import os
import pickle
import selectors
import shutil
import signal
import struct
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from .telemetry import NullJournal, RunJournal

__all__ = ["FleetReport", "FleetTask", "RunFleet", "TaskContext",
           "TaskFailure", "TaskResult", "usable_cpus"]

#: result-frame header: length of the pickled :class:`TaskResult`
_FRAME = struct.Struct("!I")
#: fresh-worker retries of a task whose worker died (exceptions inside a
#: task are deterministic and never retried)
_MAX_RETRIES = 1


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS)
        return os.cpu_count() or 1


class TaskFailure(RuntimeError):
    """Raised by :meth:`FleetReport.values` when any task failed."""


@dataclass
class FleetTask:
    """One independent unit of work.

    ``fn`` runs in a worker process (or in-process for ``jobs=1``) and
    receives a :class:`TaskContext`; its return value must be picklable
    (plain dicts/arrays — engine results qualify).  ``name`` also names
    the task's checkpoint sub-directory under the fleet's
    ``checkpoint_root``; ``header`` rides along on the merged journal's
    ``task_header`` event so ``trace-summary`` can attribute the task's
    epochs (e.g. ``{"target": 24.0, "seed": 1}``).
    """

    name: str
    fn: Callable[["TaskContext"], Any]
    header: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TaskContext:
    """What a running task knows about itself."""

    index: int
    name: str
    attempt: int
    in_worker: bool
    journal: RunJournal
    checkpoint_dir: Optional[str] = None


@dataclass
class TaskResult:
    """Outcome of one task: ``ok``, ``failed`` or ``cancelled``."""

    index: int
    name: str
    status: str
    value: Any = None
    error: str = ""
    traceback: str = ""
    retries: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    worker: int = -1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class FleetReport:
    """Ordered task results plus pool statistics."""

    results: List[TaskResult]
    stats: Dict[str, Any]
    interrupted: bool = False

    def values(self) -> List[Any]:
        """Task values in task order; loud on any failure/cancellation."""
        bad = [r for r in self.results if not r.ok]
        if bad:
            lines = "; ".join(
                f"task {r.index} ({r.name}): {r.status}"
                + (f" — {r.error}" if r.error else "")
                for r in bad
            )
            raise TaskFailure(f"{len(bad)} task(s) did not complete: {lines}")
        return [r.value for r in self.results]

    def failures(self) -> List[TaskResult]:
        return [r for r in self.results if r.status == "failed"]


# ----------------------------------------------------------------------
# Worker plumbing
# ----------------------------------------------------------------------

class _Worker:
    """Parent-side handle of one forked worker and the share it runs."""

    __slots__ = ("id", "pid", "res_r", "pending", "buffer")

    def __init__(self, worker_id: int, pid: int, res_r: int,
                 pending: List[int]):
        self.id = worker_id
        self.pid = pid
        self.res_r = res_r          # worker → parent result frames
        self.pending = pending      # its tasks without a result, in order
        self.buffer = b""


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


class RunFleet:
    """Multi-process executor for independent, deterministic tasks.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs in-process without
        forking; ``N > 1`` requires ``os.fork``.
    journal:
        The caller's :class:`RunJournal`.  When enabled, each task writes
        its own journal file which is merged here, in task order, after
        the fleet drains.
    checkpoint_root:
        If set, each task checkpoints under ``checkpoint_root/<task.name>``
        — the same layout a sequential run would use, so per-task resume
        works at any ``jobs``.
    """

    def __init__(self, jobs: int = 1, *,
                 journal: Optional[RunJournal] = None,
                 checkpoint_root: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1 and not hasattr(os, "fork"):
            raise ValueError(
                "jobs > 1 needs os.fork, which this platform does not "
                "provide; run with jobs=1")
        self.jobs = jobs
        self.journal = journal if journal is not None else NullJournal()
        self.checkpoint_root = checkpoint_root

    # ------------------------------------------------------------------
    def shares(self, count: int) -> List[range]:
        """How ``count`` tasks split across the workers: ``min(jobs,
        count)`` contiguous, near-equal runs of task indices, fixed by the
        count alone.  Each worker runs one share, in order, so tasks of a
        share can share work (``run_grid`` stacks a share's searches)."""
        pool = min(self.jobs, count)
        return [range(w * count // pool, (w + 1) * count // pool)
                for w in range(pool)]

    def run(self, tasks: Sequence[FleetTask]) -> FleetReport:
        """Execute every task; results come back in task order."""
        tasks = list(tasks)
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError("fleet task names must be unique")
        if not tasks:
            return FleetReport(results=[], stats=self._stats([], 0.0, 0, 0))

        scratch = None
        if self.journal.enabled:
            scratch = tempfile.mkdtemp(prefix="runfleet-")
        self.journal.event(
            "fleet_header",
            jobs=self.jobs,
            tasks=len(tasks),
            task_names=names,
        )
        start = time.perf_counter()
        done: Dict[int, TaskResult] = {}   # what the task loop returned
        lost: Dict[int, TaskResult] = {}   # tasks whose worker died twice
        retries: Dict[int, int] = {}

        def emit(result: TaskResult) -> None:
            done[result.index] = result

        try:
            if self.jobs == 1:
                spawned, interrupted = 0, False
                try:
                    self._run_tasks(tasks, range(len(tasks)), 0, False,
                                    scratch, emit)
                except KeyboardInterrupt:
                    interrupted = True
            else:
                spawned, interrupted = self._run_forked(
                    tasks, scratch, emit, retries, lost)
            wall_s = time.perf_counter() - start
            results = [done.get(index) or lost.get(index)
                       or TaskResult(index=index, name=task.name,
                                     status="cancelled", error="interrupted",
                                     retries=retries.get(index, 0))
                       for index, task in enumerate(tasks)]
            phase_timers = self._merge_journals(tasks, results, scratch,
                                                done)
            stats = self._stats(results, wall_s, spawned,
                                min(self.jobs, len(tasks)))
            self.journal.run_end(
                engine="runfleet",
                fleet_stats=stats,
                phase_timers=phase_timers,
                wall_time_s=round(wall_s, 6),
            )
            return FleetReport(results=results, stats=stats,
                               interrupted=interrupted)
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    def _task_journal_path(self, scratch: Optional[str], index: int) -> str:
        return os.path.join(scratch, f"task_{index:05d}.jsonl")

    def _context(self, task: FleetTask, index: int, attempt: int,
                 in_worker: bool, scratch: Optional[str]) -> TaskContext:
        journal: RunJournal = NullJournal()
        if scratch is not None:
            # mode "w": a retried attempt discards the dead attempt's
            # partial events, so the merged journal holds one clean record
            journal = RunJournal(self._task_journal_path(scratch, index))
        checkpoint_dir = None
        if self.checkpoint_root:
            checkpoint_dir = os.path.join(self.checkpoint_root, task.name)
        return TaskContext(index=index, name=task.name, attempt=attempt,
                           in_worker=in_worker, journal=journal,
                           checkpoint_dir=checkpoint_dir)

    def _run_tasks(self, tasks, indices, first_attempt: int,
                   in_worker: bool, scratch,
                   emit: Callable[[TaskResult], None]) -> None:
        """The one task loop: run ``tasks[i]`` for each ``i`` of
        ``indices``, in order, and hand each result to ``emit``.

        ``jobs=1`` runs every task through it in-process; a forked worker
        runs its share.  The first task runs as attempt ``first_attempt``
        (a retry after a worker death), the others as attempt 0.  An
        exception inside a task is deterministic, so it becomes a failed
        result and is never retried.
        """
        for position, index in enumerate(indices):
            task = tasks[index]
            ctx = self._context(task, index,
                                first_attempt if position == 0 else 0,
                                in_worker, scratch)
            result = TaskResult(index=index, name=task.name, status="ok",
                                worker=0)
            start_wall = time.perf_counter()
            start_cpu = time.process_time()
            try:
                result.value = task.fn(ctx)
            except Exception as exc:
                result.status = "failed"
                result.error = f"{type(exc).__name__}: {exc}"
                result.traceback = traceback.format_exc()
            finally:
                ctx.journal.close()
            result.wall_s = time.perf_counter() - start_wall
            result.cpu_s = time.process_time() - start_cpu
            emit(result)

    # ------------------------------------------------------------------
    # jobs>1: one forked worker per share
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, tasks, indices: List[int],
               attempt: int, scratch) -> _Worker:
        """Fork a worker that runs ``indices`` through :meth:`_run_tasks`,
        sends each result down a pipe, and exits."""
        res_r, res_w = os.pipe()
        # buffered writes (the journal, verbose prints) must not be
        # duplicated into the child
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # child
            os.close(res_r)
            code = 1
            try:
                # the parent orchestrates shutdown: on Ctrl-C the terminal
                # signals the whole process group, so workers ignore
                # SIGINT and wait for the parent's SIGTERM instead
                signal.signal(signal.SIGINT, signal.SIG_IGN)

                def send(result: TaskResult) -> None:
                    try:
                        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                    except Exception as exc:
                        payload = pickle.dumps(replace(
                            result, status="failed", value=None,
                            error=f"unpicklable task result: {exc}"),
                            pickle.HIGHEST_PROTOCOL)
                    _write_all(res_w, _FRAME.pack(len(payload)) + payload)

                self._run_tasks(tasks, indices, attempt, True, scratch, send)
                code = 0
            finally:
                os._exit(code)
        os.close(res_w)
        return _Worker(worker_id, pid, res_r, list(indices))

    def _run_forked(self, tasks, scratch, emit, retries: Dict[int, int],
                    lost: Dict[int, TaskResult]):
        """Fork one worker per share and collect what they send until
        every worker has exited.  Returns ``(workers spawned,
        interrupted)``.

        Ctrl-C only sets a flag, so it never lands mid-read; the loop then
        SIGTERMs the live workers and reads each pipe to end-of-file, which
        keeps every result sent before the kill.
        """
        sel = selectors.DefaultSelector()
        spawned = 0
        interrupted = False

        def on_sigint(signum, frame) -> None:
            nonlocal interrupted
            interrupted = True

        def spawn(indices: List[int]) -> None:
            nonlocal spawned
            worker = self._spawn(spawned, tasks, indices,
                                 retries.get(indices[0], 0), scratch)
            sel.register(worker.res_r, selectors.EVENT_READ, worker)
            spawned += 1

        def receive(worker: _Worker) -> bool:
            """Emit the results the worker sent; False at end-of-file."""
            chunk = os.read(worker.res_r, 1 << 20)
            worker.buffer += chunk
            while len(worker.buffer) >= _FRAME.size:
                end = _FRAME.size + _FRAME.unpack_from(worker.buffer)[0]
                if len(worker.buffer) < end:
                    break
                result = pickle.loads(worker.buffer[_FRAME.size:end])
                worker.buffer = worker.buffer[end:]
                result.worker = worker.id
                result.retries = retries.get(result.index, 0)
                worker.pending.remove(result.index)
                emit(result)
            return bool(chunk)

        def close(worker: _Worker) -> None:
            sel.unregister(worker.res_r)
            os.close(worker.res_r)
            os.waitpid(worker.pid, 0)

        def died(worker: _Worker) -> None:
            """The worker exited with tasks pending, the first of them the
            one it was running: retry that task once on a fresh worker
            with the rest of the share; after a second death record a
            failure and give the rest to a fresh worker."""
            index, rest = worker.pending[0], worker.pending
            count = retries.get(index, 0)
            if count < _MAX_RETRIES:
                retries[index] = count + 1
            else:
                lost[index] = TaskResult(
                    index=index, name=tasks[index].name, status="failed",
                    error=f"worker died (worker process exited mid-task) "
                          f"after {count + 1} attempt(s)",
                    retries=count, worker=worker.id)
                rest = rest[1:]
            if rest:
                spawn(rest)

        previous = None
        if threading.current_thread() is threading.main_thread():
            previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            for share in self.shares(len(tasks)):
                spawn(list(share))
            while sel.get_map() and not interrupted:
                # the timeout bounds how long a Ctrl-C waits to be seen
                for key, _ in sel.select(timeout=0.1):
                    worker = key.data
                    if not receive(worker):
                        close(worker)
                        if worker.pending:
                            died(worker)
        finally:
            if previous is not None:
                signal.signal(signal.SIGINT, previous)
            # after a Ctrl-C (or an error) no worker outlives the fleet
            workers = [key.data for key in sel.get_map().values()]
            for worker in workers:
                os.kill(worker.pid, signal.SIGTERM)
            for worker in workers:
                while receive(worker):
                    pass
                close(worker)
            sel.close()
        return spawned, interrupted

    # ------------------------------------------------------------------
    # Journal merge + stats
    # ------------------------------------------------------------------
    def _merge_journals(self, tasks, results, scratch,
                        journaled) -> Dict[str, Dict]:
        """Stitch the task journals into the fleet journal in task order,
        each behind its ``task_header``, and sum their ``run_end`` phase
        timers across tasks.

        Only the journals of the tasks in ``journaled`` (those the task
        loop finished) are read, each once; a malformed line in one is an
        error naming the file.  A cancelled task, or one whose worker died
        twice, adds its header alone: its journal may end mid-line.
        """
        if scratch is None:
            return {}
        totals: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for result in results:
            task = tasks[result.index]
            for attempt in range(result.retries):
                self.journal.event(
                    "task_retry", task=result.index, name=task.name,
                    attempt=attempt,
                    reason="worker death — retried on a fresh worker")
            self.journal.event(
                "task_header",
                task=result.index,
                name=task.name,
                status=result.status,
                retries=result.retries,
                worker=result.worker,
                wall_time_s=round(result.wall_s, 6),
                cpu_time_s=round(result.cpu_s, 6),
                **task.header,
            )
            if result.status == "failed" and result.error:
                self.journal.event("task_error", task=result.index,
                                   name=task.name, error=result.error)
            if result.index not in journaled:
                continue
            path = self._task_journal_path(scratch, result.index)
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed journal "
                                     f"line ({exc})") from exc
                if event.get("event") != "run_end":
                    continue
                for name, info in (event.get("phase_timers") or {}).items():
                    totals[name] = totals.get(name, 0.0) \
                        + float(info.get("total_s", 0.0))
                    calls[name] = calls.get(name, 0) \
                        + int(info.get("calls", 0))
            self.journal.append_lines(lines)
        return {name: {"total_s": round(totals[name], 6),
                       "calls": calls[name]}
                for name in sorted(totals)}

    def _stats(self, results, wall_s, spawned, pool_size) -> Dict[str, Any]:
        completed = sum(1 for r in results if r.status == "ok")
        failed = sum(1 for r in results if r.status == "failed")
        cancelled = sum(1 for r in results if r.status == "cancelled")
        retries = sum(r.retries for r in results)
        busy_s = sum(r.wall_s for r in results)
        cpu_s = sum(r.cpu_s for r in results)
        pool = max(1, pool_size)
        return {
            "jobs": self.jobs,
            "tasks": len(results),
            "completed": completed,
            "failed": failed,
            "cancelled": cancelled,
            "retries": retries,
            "workers_spawned": spawned,
            "wall_s": round(wall_s, 6),
            "task_wall_s": round(busy_s, 6),
            "task_cpu_s": round(cpu_s, 6),
            # how much of the pool's capacity did useful task work
            "utilization": round(busy_s / (pool * wall_s), 4)
            if wall_s > 0 else 0.0,
        }
