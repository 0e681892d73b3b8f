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
* **Fixed shares.**  Each worker runs one contiguous share of the tasks
  (:meth:`RunFleet.shares`), in order, so the tasks of a share can pool
  their work: ``run_grid`` stacks a share's searches into one α-step
  (so their journals' ``batch_slots`` and plan counters follow the
  share, not the grid).  A worker that finishes its share idles rather
  than take another's.
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
* **Fault tolerance.**  A worker that dies mid-task (crash, OOM kill,
  SIGKILL) has its task retried once on a freshly forked worker; a
  second death reports a structured failure
  without sinking the rest of the fleet.  Exceptions *inside* a task are
  deterministic, so they are never retried — they come back as failed
  :class:`TaskResult`\\ s with the worker's traceback.  SIGINT drains
  cleanly: completed results are kept, outstanding tasks are marked
  cancelled, and the journal merge still happens.

``jobs=1`` (the default everywhere) never forks — it runs the identical
task/journal/merge pipeline in-process, so platforms without ``os.fork``
and recorded benchmark results are unaffected.
"""

from __future__ import annotations

import errno
import os
import pickle
import selectors
import shutil
import signal
import struct
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .telemetry import NullJournal, RunJournal

__all__ = ["FleetReport", "FleetTask", "RunFleet", "TaskContext",
           "TaskFailure", "TaskResult"]

#: result-frame header: task index, attempt, length of the pickled envelope
_FRAME = struct.Struct("!III")
#: command frame: task index + attempt (``_STOP`` tells a worker to exit)
_CMD = struct.Struct("!II")
_STOP = 0xFFFFFFFF
#: fresh-worker retries of a task whose worker died (exceptions inside a
#: task are deterministic and never retried)
_MAX_RETRIES = 1


class TaskFailure(RuntimeError):
    """Raised by :meth:`FleetReport.values` when any task failed."""


@dataclass
class FleetTask:
    """One independent unit of work.

    ``fn`` runs in a worker process (or in-process for ``jobs=1``) and
    receives a :class:`TaskContext`; its return value must be picklable
    (plain dicts/arrays — engine results qualify).  ``subdir`` names the
    task's checkpoint sub-directory under the fleet's ``checkpoint_root``
    (defaults to a zero-padded task index); ``header`` rides along on the
    merged journal's ``task_header`` event so ``trace-summary`` can
    attribute the task's epochs (e.g. ``{"target": 24.0, "seed": 1}``).
    """

    name: str
    fn: Callable[["TaskContext"], Any]
    subdir: str = ""
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
    """Parent-side handle of one forked worker process."""

    __slots__ = ("id", "share", "pid", "cmd_w", "res_r", "buffer", "task",
                 "attempt", "started")

    def __init__(self, worker_id: int, share: int, pid: int, cmd_w: int,
                 res_r: int):
        self.id = worker_id
        self.share = share          # the share of the tasks it runs
        self.pid = pid
        self.cmd_w = cmd_w          # parent → worker task assignments
        self.res_r = res_r          # worker → parent result frames
        self.buffer = b""
        self.task: Optional[int] = None
        self.attempt = 0
        self.started = 0.0

    def close(self) -> None:
        for fd in (self.cmd_w, self.res_r):
            try:
                os.close(fd)
            except OSError:
                pass


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    while count:
        chunk = os.read(fd, count)
        if not chunk:
            return b""
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


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
        If set, task ``i`` checkpoints under
        ``checkpoint_root/<task.subdir or task_%03d>`` — the same layout a
        sequential run would use, so per-task resume works at any ``jobs``.
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
        interrupted = False
        try:
            if self.jobs == 1:
                results, spawned, interrupted = self._run_inline(
                    tasks, scratch)
            else:
                results, spawned, interrupted = self._run_forked(
                    tasks, scratch)
            wall_s = time.perf_counter() - start
            self._merge_journals(tasks, results, scratch)
            stats = self._stats(results, wall_s, spawned,
                                min(self.jobs, len(tasks)))
            self.journal.run_end(
                engine="runfleet",
                fleet_stats=stats,
                phase_timers=self._aggregate_timers(tasks, results, scratch),
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
            checkpoint_dir = os.path.join(
                self.checkpoint_root, task.subdir or f"task_{index:03d}")
        return TaskContext(index=index, name=task.name, attempt=attempt,
                           in_worker=in_worker, journal=journal,
                           checkpoint_dir=checkpoint_dir)

    # ------------------------------------------------------------------
    # jobs=1: the identical pipeline, no fork
    # ------------------------------------------------------------------
    def _run_inline(self, tasks, scratch):
        results = []
        for index, task in enumerate(tasks):
            ctx = self._context(task, index, attempt=0, in_worker=False,
                                scratch=scratch)
            start_wall = time.perf_counter()
            start_cpu = time.process_time()
            try:
                value = task.fn(ctx)
                results.append(TaskResult(
                    index=index, name=task.name, status="ok", value=value,
                    wall_s=time.perf_counter() - start_wall,
                    cpu_s=time.process_time() - start_cpu, worker=0))
            except KeyboardInterrupt:
                results.append(TaskResult(
                    index=index, name=task.name, status="cancelled",
                    error="interrupted"))
                results.extend(
                    TaskResult(index=i, name=t.name, status="cancelled",
                               error="interrupted")
                    for i, t in enumerate(tasks) if i > index)
                return results, 0, True
            except Exception as exc:  # deterministic → no retry
                import traceback as tb
                results.append(TaskResult(
                    index=index, name=task.name, status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=tb.format_exc(),
                    wall_s=time.perf_counter() - start_wall,
                    cpu_s=time.process_time() - start_cpu, worker=0))
            finally:
                ctx.journal.close()
        return results, 0, False

    # ------------------------------------------------------------------
    # jobs>1: forked pool
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, share: int, tasks, scratch) -> _Worker:
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        # buffered writes (the journal, verbose prints) must not be
        # duplicated into the child
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # child
            os.close(cmd_w)
            os.close(res_r)
            try:
                self._worker_loop(cmd_r, res_w, tasks, scratch)
                os._exit(0)
            except BaseException:
                os._exit(1)
        os.close(cmd_r)
        os.close(res_w)
        return _Worker(worker_id, share, pid, cmd_w, res_r)

    def _worker_loop(self, cmd_r: int, res_w: int, tasks, scratch) -> None:
        # the parent orchestrates shutdown: on Ctrl-C the terminal signals
        # the whole process group, so workers must ignore SIGINT and wait
        # for the parent's SIGTERM instead of dying mid-write
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            frame = _read_exact(cmd_r, _CMD.size)
            if not frame:
                return
            index, attempt = _CMD.unpack(frame)
            if index == _STOP:
                return
            task = tasks[index]
            ctx = self._context(task, index, attempt=attempt, in_worker=True,
                                scratch=scratch)
            start_cpu = time.process_time()
            envelope: Dict[str, Any]
            try:
                value = task.fn(ctx)
                envelope = {"status": "ok", "value": value}
            except Exception as exc:
                import traceback as tb
                envelope = {"status": "failed",
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": tb.format_exc()}
            finally:
                ctx.journal.close()
            envelope["cpu_s"] = time.process_time() - start_cpu
            try:
                payload = pickle.dumps(envelope, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps(
                    {"status": "failed",
                     "error": f"unpicklable task result: {exc}",
                     "traceback": "", "cpu_s": envelope["cpu_s"]},
                    pickle.HIGHEST_PROTOCOL)
            _write_all(res_w, _FRAME.pack(index, attempt, len(payload)))
            _write_all(res_w, payload)

    def _run_forked(self, tasks, scratch):
        # one queue per share, popped from the low-index end; a worker
        # runs only its own share, and a replacement for a dead worker
        # takes over the rest of it
        queues: List[List[tuple]] = [[(i, 0) for i in reversed(share)]
                                     for share in self.shares(len(tasks))]
        slots: Dict[int, Optional[TaskResult]] = {i: None
                                                  for i in range(len(tasks))}
        retries: Dict[int, int] = {}
        outstanding = len(tasks)
        next_worker_id = 0
        spawned = 0
        interrupted = False

        sel = selectors.DefaultSelector()
        workers: Dict[int, _Worker] = {}  # keyed by res_r fd

        def spawn_worker(share: int) -> _Worker:
            nonlocal next_worker_id, spawned
            worker = self._spawn(next_worker_id, share, tasks, scratch)
            next_worker_id += 1
            spawned += 1
            workers[worker.res_r] = worker
            sel.register(worker.res_r, selectors.EVENT_READ, worker)
            return worker

        def assign(worker: _Worker) -> None:
            queue = queues[worker.share]
            if not queue:
                return
            index, attempt = queue.pop()
            worker.task = index
            worker.attempt = attempt
            worker.started = time.perf_counter()
            try:
                _write_all(worker.cmd_w, _CMD.pack(index, attempt))
            except OSError:
                # worker died before it could take the task; requeue and
                # let the EOF path below reap + respawn
                queue.append((index, attempt))
                worker.task = None

        def finish(worker: _Worker, result: TaskResult) -> None:
            nonlocal outstanding
            result.name = tasks[result.index].name
            result.retries = retries.get(result.index, 0)
            slots[result.index] = result
            worker.task = None
            outstanding -= 1

        def reap(worker: _Worker) -> None:
            sel.unregister(worker.res_r)
            workers.pop(worker.res_r, None)
            worker.close()
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:
                pass

        def worker_died(worker: _Worker, reason: str) -> None:
            """A worker vanished (crash or kill): retry or fail its
            task on a *fresh* worker, which takes over its share."""
            nonlocal outstanding
            index = worker.task
            if index is not None:
                count = retries.get(index, 0)
                if count < _MAX_RETRIES:
                    retries[index] = count + 1
                    queues[worker.share].append((index, worker.attempt + 1))
                else:
                    slots[index] = TaskResult(
                        index=index, name=tasks[index].name, status="failed",
                        error=f"worker died ({reason}) after "
                              f"{count + 1} attempt(s)",
                        retries=count, worker=worker.id)
                    outstanding -= 1
                worker.task = None
            reap(worker)
            if queues[worker.share]:
                assign(spawn_worker(worker.share))

        try:
            for share in range(len(queues)):
                assign(spawn_worker(share))
            while outstanding > 0:
                for key, _ in sel.select():
                    worker: _Worker = key.data
                    done = self._drain_worker(worker)
                    if done is None:      # EOF — the worker died
                        worker_died(worker, "worker process exited "
                                            "mid-task")
                        continue
                    for result in done:
                        finish(worker, result)
                    if done:
                        assign(worker)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            self._shutdown(sel, workers)

        results = []
        for index, task in enumerate(tasks):
            result = slots[index]
            if result is None:
                result = TaskResult(index=index, name=task.name,
                                    status="cancelled",
                                    error="interrupted",
                                    retries=retries.get(index, 0))
            results.append(result)
        return results, spawned, interrupted

    def _drain_worker(self, worker: _Worker) -> Optional[List[TaskResult]]:
        """Read whatever the worker sent; None means EOF (worker death)."""
        try:
            chunk = os.read(worker.res_r, 1 << 20)
        except OSError as exc:
            if exc.errno == errno.EAGAIN:
                return []
            return None
        if not chunk:
            return None
        worker.buffer += chunk
        done: List[TaskResult] = []
        while len(worker.buffer) >= _FRAME.size:
            index, attempt, length = _FRAME.unpack(
                worker.buffer[:_FRAME.size])
            if len(worker.buffer) < _FRAME.size + length:
                break
            payload = worker.buffer[_FRAME.size:_FRAME.size + length]
            worker.buffer = worker.buffer[_FRAME.size + length:]
            try:
                envelope = pickle.loads(payload)
            except Exception as exc:
                envelope = {"status": "failed",
                            "error": f"undecodable task result: {exc}",
                            "traceback": "", "cpu_s": 0.0}
            done.append(TaskResult(
                index=index, name="", status=envelope["status"],
                value=envelope.get("value"),
                error=envelope.get("error", ""),
                traceback=envelope.get("traceback", ""),
                wall_s=time.perf_counter() - worker.started,
                cpu_s=float(envelope.get("cpu_s", 0.0)),
                worker=worker.id))
        return done

    def _shutdown(self, sel, workers: Dict[int, _Worker]) -> None:
        for worker in workers.values():
            try:
                _write_all(worker.cmd_w, _CMD.pack(_STOP, 0))
            except OSError:
                pass
            try:
                os.close(worker.cmd_w)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers.values():
            remaining = max(0.0, deadline - time.monotonic())
            if not self._wait_worker(worker, remaining):
                for sig in (signal.SIGTERM, signal.SIGKILL):
                    try:
                        os.kill(worker.pid, sig)
                    except ProcessLookupError:
                        break
                    if self._wait_worker(worker, 2.0):
                        break
            try:
                sel.unregister(worker.res_r)
            except (KeyError, ValueError):
                pass
            try:
                os.close(worker.res_r)
            except OSError:
                pass
        sel.close()

    @staticmethod
    def _wait_worker(worker: _Worker, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while True:
            try:
                pid, _ = os.waitpid(worker.pid, os.WNOHANG)
            except ChildProcessError:
                return True
            if pid == worker.pid:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    # ------------------------------------------------------------------
    # Journal merge + stats
    # ------------------------------------------------------------------
    def _merge_journals(self, tasks, results, scratch) -> None:
        if scratch is None:
            return
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
            path = self._task_journal_path(scratch, result.index)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    self.journal.append_lines(handle)

    def _aggregate_timers(self, tasks, results, scratch) -> Dict[str, Dict]:
        """Sum each task journal's ``run_end`` phase timers across tasks."""
        if scratch is None:
            return {}
        import json

        totals: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for result in results:
            path = self._task_journal_path(scratch, result.index)
            if not os.path.exists(path):
                continue
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if event.get("event") != "run_end":
                        continue
                    for name, info in (event.get("phase_timers")
                                       or {}).items():
                        totals[name] = totals.get(name, 0.0) \
                            + float(info.get("total_s", 0.0))
                        calls[name] = calls.get(name, 0) \
                            + int(info.get("calls", 0))
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
