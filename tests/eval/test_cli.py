"""Tests of the command-line interface."""

import glob
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.runtime.telemetry import RunJournal


TINY_ARCH = "1,2,3,4"

#: --targets values that must exit naming the flag: malformed, empty, not
#: finite, or two targets sharing one task and checkpoint sub-directory
BAD_TARGETS = ["24,abc", ",", "", "nan", "24,24", "20,20.0"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search"])

    def test_metric_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--target", "24",
                                       "--metric", "watts"])


class TestInfo:
    def test_full_space(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "5.59e+17" in out
        assert "jetson-agx-xavier-maxn" in out

    def test_tiny_space(self, capsys):
        assert main(["info", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "4" in out


class TestPredict:
    def test_tiny_arch(self, capsys):
        assert main(["predict", "--tiny", "--arch", TINY_ARCH]) == 0
        out = capsys.readouterr().out
        assert "latency (model)" in out
        assert "multi-adds" in out

    def test_malformed_arch(self):
        with pytest.raises(SystemExit):
            main(["predict", "--tiny", "--arch", "1,banana"])

    def test_wrong_length_arch(self):
        with pytest.raises(SystemExit):
            main(["predict", "--tiny", "--arch", "1,2"])


class TestEvaluate:
    def test_emits_json_row(self, capsys):
        assert main(["evaluate", "--tiny", "--arch", TINY_ARCH,
                     "--name", "probe"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "probe"
        assert 0 < payload["top1"] <= 100


class TestSearch:
    def test_tiny_search_outputs_json(self, capsys, tmp_path):
        output = tmp_path / "result.json"
        assert main(["search", "--tiny", "--target", "2.3", "--seed", "0",
                     "--output", str(output)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert "architecture" in stdout_payload
        assert abs(stdout_payload["true_latency_ms"] - 2.3) < 0.3
        with open(output) as handle:
            assert json.load(handle) == stdout_payload

    def test_tiny_honors_epochs(self, capsys):
        """Regression: --tiny used to silently ignore --epochs."""
        assert main(["search", "--tiny", "--target", "2.3", "--seed", "0",
                     "--epochs", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # tiny config: 4 α steps per epoch, 2 warmup epochs
        assert payload["num_search_steps"] == (3 - 2) * 4

    def test_tiny_rejects_unsupported_metric(self):
        """Regression: --tiny used to silently ignore --metric."""
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--tiny", "--target", "2.3", "--metric", "energy"])
        assert "--metric latency only" in str(excinfo.value)

    @pytest.mark.parametrize("command", [
        ["search", "--target", "300"],
        ["sweep", "--targets", "250,300"],
        ["stability", "--targets", "300", "--seeds", "0"],
    ])
    def test_surrogate_rejects_float32(self, command, capsys):
        """Regression: --dtype float32 on a surrogate search printed output
        byte-identical to float64 while changing the checkpoint
        fingerprint; it must exit naming where --dtype applies.  sweep and
        stability run only surrogate searches, so they have no --dtype."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--metric", "macs", "--dtype", "float32"])
        if command[0] == "search":
            assert "--dtype applies only to --tiny supernet searches" in str(
                excinfo.value)
        else:
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --dtype" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["search", "--target", "24", "--metric", "macs"],
        ["search", "--tiny", "--target", "2.3"],
        ["sweep", "--tiny", "--targets", "2.0"],
        ["stability", "--tiny", "--targets", "2.0", "--seeds", "0"],
    ], ids=["search", "search-tiny", "sweep", "stability"])
    def test_nonpositive_epochs_exit_naming_the_field(self, command):
        """Regression: --epochs -3 died in CosineSchedule with "total_steps
        must be positive" (a traceback from search, a failed task from
        stability)."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--epochs", "-3"])
        assert str(excinfo.value) == "error: epochs must be >= 1, got -3"


class TestSweep:
    def test_resume_requires_checkpoint_dir(self):
        """Regression: sweep --resume without --checkpoint-dir used to be
        silently ignored (the flag was only read inside the checkpoint-dir
        branch) — it must abort loudly like search does."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--tiny", "--targets", "2.0,2.5", "--resume"])
        assert "--checkpoint-dir" in str(excinfo.value)

    def test_jobs_matches_sequential_and_delimits_journal(self, capsys,
                                                          tmp_path):
        base = ["sweep", "--tiny", "--targets", "2.0,2.5", "--seed", "0",
                "--epochs", "20"]
        assert main(base) == 0
        sequential = capsys.readouterr().out

        trace = str(tmp_path / "sweep.jsonl")
        assert main(base + ["--jobs", "2", "--trace", trace]) == 0
        captured = capsys.readouterr()
        assert captured.out == sequential  # bit-identical table
        assert "fleet:" in captured.err

        events = [json.loads(line) for line in open(trace)]
        headers = [e for e in events if e["event"] == "task_header"]
        assert [h["name"] for h in headers] == ["target_2", "target_2.5"]
        assert [h["target"] for h in headers] == [2.0, 2.5]

        assert main(["trace-summary", trace]) == 0
        summary = capsys.readouterr().out
        assert "run fleet" in summary
        assert "fleet task" in summary

    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_bad_targets_exit_naming_the_flag(self, targets):
        """Regression: see TestStability."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--tiny", "--targets", targets])
        assert "error:" in str(excinfo.value)
        assert "--targets" in str(excinfo.value)

    def test_sequential_journal_delimits_targets(self, capsys, tmp_path):
        """Regression: one shared sweep journal had no per-target
        delimiter, so trace-summary could not attribute epochs."""
        trace = str(tmp_path / "seq.jsonl")
        assert main(["sweep", "--tiny", "--targets", "2.0,2.5",
                     "--epochs", "20", "--trace", trace]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in open(trace)]
        headers = [e for e in events if e["event"] == "task_header"]
        assert [h["target"] for h in headers] == [2.0, 2.5]


class TestStability:
    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_bad_targets_exit_naming_the_flag(self, targets):
        """Regression: malformed --targets ended in a raw ValueError from
        float(), and duplicates in RunFleet's "task names must be unique"
        after the predictor fit."""
        with pytest.raises(SystemExit) as excinfo:
            main(["stability", "--tiny", "--targets", targets,
                  "--seeds", "0,1"])
        assert "error:" in str(excinfo.value)
        assert "--targets" in str(excinfo.value)

    def test_jobs1_grid_is_one_stacked_search(self, capsys, tmp_path):
        """At --jobs 1 the 2×2 grid runs as one stacked α-step, at --jobs 2
        each worker stacks its half: the tables are byte-identical, and
        each stack's slots share one compiled plan."""
        base = ["stability", "--tiny", "--targets", "2.0,2.5",
                "--seeds", "0,1", "--epochs", "12"]

        def grid(jobs):
            trace = str(tmp_path / f"grid{jobs}.jsonl")
            assert main(base + ["--jobs", str(jobs), "--trace", trace]) == 0
            out = capsys.readouterr().out
            events = [json.loads(line) for line in open(trace)]
            slots = [e["batch_slots"] for e in events
                     if e["event"] == "run_header"]
            compiles = [e["plan_stats"]["plans_compiled"] for e in events
                        if e["event"] == "run_end" and "plan_stats" in e]
            return out, slots, compiles, trace

        fanned, slots, compiles, _ = grid(2)
        assert (slots, compiles) == ([2, 2, 2, 2], [1, 0, 1, 0])
        out, slots, compiles, trace = grid(1)
        assert out == fanned
        assert (slots, compiles) == ([4, 4, 4, 4], [1, 0, 0, 0])
        assert main(["trace-summary", trace]) == 0
        assert capsys.readouterr().out.count("shared by 4 slots") == 4

    def test_grid_runs_and_reports(self, capsys, tmp_path):
        output = tmp_path / "stability.json"
        assert main(["stability", "--tiny", "--targets", "2.0",
                     "--seeds", "0,1", "--epochs", "20", "--jobs", "2",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "multi-seed stability" in out
        with open(output) as handle:
            payload = json.load(handle)
        assert payload["seeds"] == [0, 1]
        assert len(payload["runs"]) == 2
        assert {run["seed"] for run in payload["runs"]} == {0, 1}

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["stability", "--tiny", "--targets", "2.0",
                  "--seeds", "0,0"])
        assert "duplicate" in str(excinfo.value)


class TestFleetFooter:
    def test_reports_utilization_and_oversubscription(self, capsys, tmp_path,
                                                      monkeypatch):
        """The footer and trace-summary report utilization, not a
        "speedup" (Σ task wall / fleet wall measures concurrency), and the
        footer says when --jobs is capped at the usable CPUs."""
        monkeypatch.setattr("repro.runtime.parallel.usable_cpus", lambda: 1)
        trace = str(tmp_path / "fleet.jsonl")
        assert main(["stability", "--tiny", "--targets", "2.0",
                     "--seeds", "0,1", "--epochs", "2", "--jobs", "2",
                     "--trace", trace]) == 0
        err = capsys.readouterr().err
        assert "utilization" in err
        assert "speedup" not in err
        assert "--jobs 2 capped at 1 usable CPUs" in err
        assert main(["trace-summary", trace]) == 0
        summary = capsys.readouterr().out
        assert "worker utilization" in summary
        assert "speedup" not in summary


class TestFleetCalibrate:
    def test_writes_transfer_payload(self, capsys, tmp_path):
        output = tmp_path / "maps.json"
        assert main(["fleet", "calibrate", "--tiny",
                     "--fleet", "phone=2", "--calibration", "30",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "proxy transfer maps" in out
        with open(output) as handle:
            payload = json.load(handle)
        assert set(payload["maps"]) == {"phone-00", "phone-01"}


class TestFleetSearch:
    def test_bad_calibration_exits_with_error(self):
        """Regression: a calibration of one sample raised a ValueError
        traceback from fleet search, where calibrate and retarget exit."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "search", "--tiny", "--device", "phone-00",
                  "--target", "30", "--calibration", "1"])
        assert str(excinfo.value).startswith("error: ")
        assert "calibration samples" in str(excinfo.value)


class TestRuntimeFlags:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--tiny", "--target", "2.3", "--resume"])
        assert "--checkpoint-dir" in str(excinfo.value)

    def test_checkpoint_resume_trace_round_trip(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        trace = str(tmp_path / "run.jsonl")
        args = ["search", "--tiny", "--target", "2.3", "--seed", "0",
                "--epochs", "3", "--checkpoint-dir", ckpt_dir,
                "--checkpoint-every", "1", "--trace", trace]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert len(glob.glob(os.path.join(ckpt_dir, "*.npz"))) == 3

        # drop the newest checkpoint so the resume really replays an epoch
        os.remove(sorted(glob.glob(os.path.join(ckpt_dir, "*.npz")))[-1])
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        assert json.loads(captured.out) == first

        assert main(["trace-summary", trace]) == 0
        summary = capsys.readouterr().out
        assert "lightnas" in summary
        assert "resumed" in summary


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["stability", "--tiny", "--targets", "2.0", "--seeds", "0",
         "--epochs", "1", "--jobs", "0"],
        ["sweep", "--tiny", "--targets", "2.0", "--epochs", "1",
         "--jobs", "-1"],
        ["search", "--tiny", "--target", "2.3", "--epochs", "1",
         "--checkpoint-dir", "{tmp}", "--checkpoint-every", "0"],
        ["sweep", "--tiny", "--targets", "2.0", "--epochs", "1",
         "--checkpoint-dir", "{tmp}", "--checkpoint-every", "-2"],
    ], ids=["stability-jobs", "sweep-jobs", "search-checkpoint-every",
            "sweep-checkpoint-every"])
    def test_nonpositive_count_exits_naming_the_flag(self, argv, capsys,
                                                      tmp_path):
        """Regression: --jobs 0 raised ValueError from RunFleet and
        --checkpoint-every 0 from CheckpointManager, as tracebacks."""
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        flag = argv[-2]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 1" in err
        assert os.listdir(tmp_path) == []


class TestTraceSummaryLayers:
    def test_layer_profile_table(self, capsys, tmp_path):
        """``--ops`` merges every epoch's ``layer_profile`` into one
        per-layer forward table, slowest layer/op first."""
        path = str(tmp_path / "run.jsonl")
        dw = {"total_ms": 3.0, "calls": 4, "mean_ms": 0.75, "alloc_bytes": 0}
        with RunJournal(path) as journal:
            journal.run_header(engine="lightnas", target=1.0, seed=0)
            journal.epoch(epoch=0, op_profile={"conv2d_dw": dw},
                          layer_profile={
                              "layer 0/mbconv_k3_e3": {
                                  "total_ms": 2.5, "calls": 2,
                                  "mean_ms": 1.25},
                              "layer 1/skip": {
                                  "total_ms": 0.1, "calls": 2,
                                  "mean_ms": 0.05}})
            journal.epoch(epoch=1, op_profile={"conv2d_dw": dw},
                          layer_profile={
                              "layer 0/mbconv_k7_e6": {
                                  "total_ms": 4.0, "calls": 1,
                                  "mean_ms": 4.0},
                              "layer 1/skip": {
                                  "total_ms": 0.2, "calls": 1,
                                  "mean_ms": 0.2}})
            journal.run_end(final_predicted_metric=1.1)
        assert main(["trace-summary", "--ops", path]) == 0
        out = capsys.readouterr().out
        table = out[out.index("per-layer forward"):].splitlines()
        assert table == [
            "per-layer forward — run 1/1",
            "layer/op              forward ms  calls  mean ms",
            "--------------------  ----------  -----  -------",
            "layer 0/mbconv_k7_e6  4.0         1      4.0000 ",
            "layer 0/mbconv_k3_e3  2.5         2      1.2500 ",
            "layer 1/skip          0.3         3      0.1000 ",
        ]
        # the op table is untouched by the layer spans
        assert "conv2d_dw  6.0       8" in out

    def test_no_layer_table_without_layer_profile(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.run_header(engine="lightnas", target=24.0, seed=0)
            journal.epoch(epoch=0, op_profile={"matmul": {
                "total_ms": 1.0, "calls": 1, "mean_ms": 1.0}})
            journal.run_end()
        assert main(["trace-summary", "--ops", path]) == 0
        assert "per-layer" not in capsys.readouterr().out
