"""Tests of the JSON-lines run journal, phase timers, and summariser."""

import json

import pytest

from repro.runtime.telemetry import (
    NullJournal,
    PhaseTimers,
    RunJournal,
    read_journal,
    summarize_runs,
)


class TestRunJournal:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.run_header(engine="lightnas", target=24.0, seed=0)
            journal.epoch(epoch=0, predicted_metric=25.0, valid_loss=1.5)
            journal.run_end(final_predicted_metric=24.1)
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] == ["run_header", "epoch", "run_end"]
        assert events[0]["engine"] == "lightnas"
        assert events[0]["numpy"]  # versions recorded
        assert all("elapsed_s" in e for e in events)

    def test_flushed_per_event(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path)
        journal.event("epoch", epoch=0)
        # readable before close — a crashed run leaves a usable journal
        assert json.loads(open(path).read())["epoch"] == 0
        journal.close()

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "runs" / "deep" / "run.jsonl")
        with RunJournal(path) as journal:
            journal.event("run_header", engine="x")
        assert len(read_journal(path)) == 1

    def test_reopening_starts_a_fresh_journal(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.event("run_header", engine="a")
        with RunJournal(path) as journal:
            journal.event("run_header", engine="b")
        assert [e["engine"] for e in read_journal(path)] == ["b"]

    def test_read_journal_loud_on_malformed_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event": "epoch"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed journal line"):
            read_journal(path)


class TestNullJournal:
    def test_all_events_are_noops(self):
        journal = NullJournal()
        assert not journal.enabled
        journal.run_header(engine="x", anything=1)
        journal.epoch(epoch=0)
        journal.event("checkpoint", path="p")
        journal.run_end()
        journal.close()
        assert journal.path is None


class TestPhaseTimers:
    def test_aggregates_per_phase(self):
        timers = PhaseTimers()
        for _ in range(3):
            with timers.phase("train"):
                pass
        with timers.phase("eval"):
            pass
        report = timers.as_dict()
        assert report["train"]["calls"] == 3
        assert report["eval"]["calls"] == 1
        assert report["train"]["total_s"] >= 0.0
        assert timers.total("missing") == 0.0

    def test_records_time_even_on_exception(self):
        timers = PhaseTimers()
        with pytest.raises(RuntimeError):
            with timers.phase("boom"):
                raise RuntimeError
        assert timers.as_dict()["boom"]["calls"] == 1


class TestSummarizeRuns:
    def _events(self):
        return [
            {"event": "run_header", "engine": "lightnas", "target": 24.0,
             "metric_name": "latency_ms", "seed": 0, "start_epoch": 0},
            {"event": "epoch", "epoch": 0, "predicted_metric": 30.0,
             "lambda": 0.1, "valid_loss": 2.0, "architecture": [1, 2]},
            {"event": "checkpoint", "epoch": 0, "path": "p"},
            {"event": "epoch", "epoch": 1, "predicted_metric": 24.5,
             "lambda": 0.2, "valid_loss": 1.5, "architecture": [1, 3]},
            {"event": "run_end", "final_predicted_metric": 24.5,
             "wall_time_s": 1.25, "phase_timers": {"update_alpha":
                                                   {"total_s": 1.0, "calls": 2}}},
        ]

    def test_single_run_digest(self):
        runs = summarize_runs(self._events())
        assert len(runs) == 1
        run = runs[0]
        assert run["engine"] == "lightnas"
        assert run["epochs_recorded"] == 2
        assert run["checkpoints_written"] == 1
        assert run["final_predicted_metric"] == 24.5
        assert run["final_lambda"] == 0.2
        assert run["final_valid_loss"] == 1.5
        assert run["wall_time_s"] == 1.25
        assert run["phase_timers"]["update_alpha"]["calls"] == 2

    def test_multiple_runs_split_on_headers(self):
        events = self._events() + self._events()
        runs = summarize_runs(events)
        assert len(runs) == 2
        assert all(r["epochs_recorded"] == 2 for r in runs)

    def test_events_before_first_header_ignored(self):
        events = [{"event": "epoch", "epoch": 0}] + self._events()
        assert summarize_runs(events)[0]["epochs_recorded"] == 2

    def test_empty(self):
        assert summarize_runs([]) == []
