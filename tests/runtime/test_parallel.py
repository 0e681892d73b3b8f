"""Tests of the run-fleet executor: determinism, faults, journal merge."""

import os
import signal
import time

import pytest

from repro.core.lightnas import LightNAS, LightNASConfig, run_grid
from repro.runtime.parallel import (
    FleetTask,
    RunFleet,
    TaskFailure,
)
from repro.runtime.telemetry import (
    RunJournal,
    read_journal,
    summarize_fleet,
    summarize_runs,
)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")

#: Journal fields that legitimately differ between jobs levels (timing,
#: process identity, pool geometry) — everything else must match exactly.
VOLATILE = {"elapsed_s", "wall_time_s", "cpu_time_s", "unix_time",
            "worker", "jobs", "fleet_stats", "phase_timers"}


def normalized_events(path):
    return [{key: value for key, value in event.items()
             if key not in VOLATILE}
            for event in read_journal(path)]


def search_tasks(space, predictor, targets, seeds=(0,)):
    """One tiny surrogate search per (target, seed) — the sweep shape."""
    tasks = []
    for target in targets:
        for seed in seeds:
            config = LightNASConfig.paper(target, space=space, seed=seed,
                                          epochs=12, steps_per_epoch=8)

            def fn(ctx, config=config):
                result = LightNAS(config, predictor=predictor).search(
                    journal=ctx.journal)
                return {
                    "arch": list(result.architecture.op_indices),
                    "predicted": float(result.predicted_metric),
                    "trajectory": list(result.trajectory.predicted_metric),
                }

            tasks.append(FleetTask(
                name=f"target_{target:g}_seed_{seed}", fn=fn,
                header={"target": target, "seed": seed}))
    return tasks


class TestFleetBasics:
    def test_values_in_task_order(self):
        fleet = RunFleet(jobs=1)
        tasks = [FleetTask(name=f"t{i}", fn=lambda ctx, i=i: i * i)
                 for i in range(5)]
        assert fleet.run(tasks).values() == [0, 1, 4, 9, 16]

    def test_rejects_duplicate_task_names(self):
        fleet = RunFleet(jobs=1)
        with pytest.raises(ValueError, match="unique"):
            fleet.run([FleetTask(name="same", fn=lambda ctx: 1),
                       FleetTask(name="same", fn=lambda ctx: 2)])

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            RunFleet(jobs=0)

    def test_deterministic_error_is_not_retried(self):
        def boom(ctx):
            raise ValueError("deterministic bug")

        fleet = RunFleet(jobs=1)
        report = fleet.run([FleetTask(name="boom", fn=boom),
                            FleetTask(name="fine", fn=lambda ctx: "ok")])
        bad, good = report.results
        assert bad.status == "failed"
        assert bad.retries == 0
        assert "deterministic bug" in bad.error
        assert good.ok and good.value == "ok"
        assert report.failures() == [bad]
        with pytest.raises(TaskFailure, match="boom"):
            report.values()

    def test_stats_shape(self):
        fleet = RunFleet(jobs=1)
        report = fleet.run([FleetTask(name="t", fn=lambda ctx: None)])
        for key in ("jobs", "tasks", "completed", "failed", "cancelled",
                    "retries", "workers_spawned", "wall_s", "task_wall_s",
                    "task_cpu_s", "utilization"):
            assert key in report.stats
        # Σ task wall / fleet wall is concurrency, not a speedup
        assert "parallel_speedup" not in report.stats
        assert report.stats["completed"] == 1

    @needs_fork
    def test_shares_are_contiguous_and_fixed_by_the_count(self):
        assert RunFleet(jobs=1).shares(3) == [range(0, 3)]
        assert RunFleet(jobs=2).shares(5) == [range(0, 2), range(2, 5)]
        assert RunFleet(jobs=4).shares(2) == [range(0, 1), range(1, 2)]
        assert RunFleet(jobs=2).shares(0) == []

    @needs_fork
    def test_each_worker_runs_one_share(self):
        report = RunFleet(jobs=2).run([
            FleetTask(name=f"t{i}", fn=lambda ctx: os.getpid())
            for i in range(5)])
        pids = report.values()
        assert [r.worker for r in report.results] == [0, 0, 1, 1, 1]
        assert len({pids[0], pids[1]}) == 1
        assert len(set(pids[2:])) == 1 and pids[0] != pids[2]

    @needs_fork
    def test_forked_values_match_inline(self):
        tasks = lambda: [  # noqa: E731 - tiny local factory
            FleetTask(name=f"t{i}",
                      fn=lambda ctx: (ctx.index, ctx.index ** 2 / 7))
            for i in range(6)]
        inline = RunFleet(jobs=1).run(tasks()).values()
        forked = RunFleet(jobs=3).run(tasks()).values()
        assert inline == forked

    @needs_fork
    def test_run_grid_caps_workers_at_usable_cpus(self, tiny_space,
                                                  tiny_predictor,
                                                  monkeypatch):
        """More workers than CPUs only time-slice the same cores, so a
        grid pinned to one CPU runs in-process at any --jobs."""
        configs = [LightNASConfig.paper(target, space=tiny_space, seed=0,
                                        epochs=4, steps_per_epoch=4)
                   for target in (2.0, 2.5)]

        def outcome(report):
            return [(list(result.architecture.op_indices),
                     float(result.predicted_metric),
                     list(result.trajectory.predicted_metric))
                    for result in report.values()]

        reference = outcome(run_grid(configs, tiny_predictor))
        monkeypatch.setattr("repro.runtime.parallel.usable_cpus", lambda: 1)
        report = run_grid(configs, tiny_predictor, jobs=4)
        assert report.stats["workers_spawned"] == 0
        assert report.stats["jobs"] == 1
        assert outcome(report) == reference


@needs_fork
class TestFleetParity:
    """jobs=1 vs jobs=4 bit-identity on the shipped workloads."""

    def test_sweep_parity(self, tiny_space, tiny_predictor):
        targets = (2.0, 2.4, 2.8)
        sequential = RunFleet(jobs=1).run(
            search_tasks(tiny_space, tiny_predictor, targets)).values()
        fanned = RunFleet(jobs=4).run(
            search_tasks(tiny_space, tiny_predictor, targets)).values()
        assert sequential == fanned  # archs, metrics AND trajectories

    def test_stability_parity_and_journals(self, tiny_space, tiny_predictor,
                                           tmp_path):
        targets, seeds = (2.0, 2.5), (0, 1)

        def run_with(jobs, name):
            journal = RunJournal(str(tmp_path / name))
            fleet = RunFleet(jobs=jobs, journal=journal)
            values = fleet.run(search_tasks(tiny_space, tiny_predictor,
                                            targets, seeds)).values()
            journal.close()
            return values, journal.path

        seq_values, seq_journal = run_with(1, "seq.jsonl")
        par_values, par_journal = run_with(4, "par.jsonl")
        assert seq_values == par_values
        # merged journals agree event-for-event once timing/process
        # identity fields are dropped — same order, same payloads
        assert normalized_events(seq_journal) == normalized_events(
            par_journal)

    def test_journal_attribution_and_fleet_summary(self, tiny_space,
                                                   tiny_predictor, tmp_path):
        journal = RunJournal(str(tmp_path / "fleet.jsonl"))
        fleet = RunFleet(jobs=2, journal=journal)
        report = fleet.run(search_tasks(tiny_space, tiny_predictor,
                                        (2.0, 2.5)))
        journal.close()
        events = read_journal(journal.path)
        assert events[0]["event"] == "fleet_header"

        runs = summarize_runs(events)
        assert [run["task"]["name"] for run in runs] == [
            "target_2_seed_0", "target_2.5_seed_0"]
        assert [run["task"]["target"] for run in runs] == [2.0, 2.5]
        assert all(run["epochs_recorded"] == 12 for run in runs)

        digest = summarize_fleet(events)
        assert digest["jobs"] == 2
        assert digest["declared_tasks"] == 2
        assert digest["stats"] == report.stats
        assert digest["phase_timers"]  # aggregated across both tasks


@needs_fork
class TestFleetFaults:
    def test_sigkill_mid_task_retried_once(self, tmp_path):
        journal = RunJournal(str(tmp_path / "faults.jsonl"))
        fleet = RunFleet(jobs=2, journal=journal)

        def victim(ctx):
            if ctx.attempt == 0 and ctx.in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            return "survived"

        tasks = [FleetTask(name="victim", fn=victim)] + [
            FleetTask(name=f"ok{i}", fn=lambda ctx, i=i: i)
            for i in range(3)]
        report = fleet.run(tasks)
        journal.close()

        assert report.values() == ["survived", 0, 1, 2]
        assert report.results[0].retries == 1
        assert report.stats["retries"] == 1
        # attempt 0 ran on worker 0, which owns the share (victim, ok0);
        # worker 0 was killed, so a fresh worker takes over that share
        # and retries the victim
        assert report.results[0].worker == 2
        assert report.results[1].worker == 2
        assert report.stats["workers_spawned"] == 3

        events = read_journal(journal.path)
        retries = [e for e in events if e["event"] == "task_retry"]
        assert len(retries) == 1
        assert retries[0]["name"] == "victim"

    def test_repeated_crash_becomes_structured_failure(self):
        def always_dies(ctx):
            if ctx.in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            return "unreachable"

        fleet = RunFleet(jobs=2)
        report = fleet.run([
            FleetTask(name="doomed", fn=always_dies),
            FleetTask(name="fine", fn=lambda ctx: "ok"),
        ])
        doomed, fine = report.results
        assert doomed.status == "failed"
        assert doomed.retries == 1  # one retry, then reported
        assert "worker died" in doomed.error
        assert fine.ok and fine.value == "ok"
        with pytest.raises(TaskFailure, match="doomed"):
            report.values()

    def test_ctrl_c_keeps_sent_results_and_cancels_the_rest(self, tmp_path):
        """Ctrl-C drains the pool: the result sent before the interrupt is
        kept, the tasks without one are cancelled, no worker outlives the
        fleet, and the merged journal still parses."""
        journal = RunJournal(str(tmp_path / "interrupted.jsonl"))

        def interrupt(ctx):
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)  # until the parent's SIGTERM

        def hang(ctx):
            time.sleep(60)

        # shares: worker 0 runs (first, interrupt), worker 1 the rest
        tasks = [FleetTask(name="first", fn=lambda ctx: "done"),
                 FleetTask(name="interrupt", fn=interrupt),
                 FleetTask(name="hang0", fn=hang),
                 FleetTask(name="hang1", fn=hang)]
        report = RunFleet(jobs=2, journal=journal).run(tasks)
        journal.close()

        assert report.interrupted
        assert [r.status for r in report.results] == [
            "ok", "cancelled", "cancelled", "cancelled"]
        assert report.results[0].value == "done"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        events = read_journal(journal.path)
        headers = [e for e in events if e["event"] == "task_header"]
        assert [h["status"] for h in headers] == [
            "ok", "cancelled", "cancelled", "cancelled"]
        assert events[-1]["fleet_stats"]["cancelled"] == 3
