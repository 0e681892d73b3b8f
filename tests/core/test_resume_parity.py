"""Fault-injection resume-parity tests.

"You only search once" makes a crashed run maximally expensive, so the
checkpoint/resume path must be *exact*: a search killed at an arbitrary
epoch and resumed from its latest checkpoint must produce the identical
:class:`SearchResult` — architecture, predicted metric, final λ, and the
full trajectory, bit for bit — as an uninterrupted run.

The kill is injected through the telemetry interface (a journal that
raises at a Hypothesis-chosen epoch), which aborts the loop exactly where
a real crash would: after the epoch's work, before its checkpoint.  The
same holds for a grid of searches stacked into batches: each search
resumes from its own checkpoints, and searches resuming at the same epoch
share a batch again.
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.lightnas import LightNAS, LightNASConfig, run_grid
from repro.proxy.dataset import SyntheticTask
from repro.runtime.checkpoint import (CheckpointError, load_checkpoint,
                                     save_checkpoint)
from repro.runtime.telemetry import NullJournal, RunJournal, read_journal

SURROGATE_EPOCHS = 8


class KillAtEpoch(NullJournal):
    """Journal that simulates a crash at a chosen epoch."""

    def __init__(self, kill_epoch: int) -> None:
        super().__init__()
        self.kill_epoch = kill_epoch

    def epoch(self, **fields) -> None:
        if fields["epoch"] == self.kill_epoch:
            raise KeyboardInterrupt(f"injected crash at epoch {self.kill_epoch}")


def _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle) -> LightNAS:
    cfg = LightNASConfig(space=tiny_space, target=2.3, mode="surrogate",
                         epochs=SURROGATE_EPOCHS, steps_per_epoch=2,
                         batch_size=8, seed=3)
    return LightNAS(cfg, predictor=tiny_predictor, oracle=tiny_oracle)


def _supernet_engine(tiny_space, tiny_predictor) -> LightNAS:
    cfg = LightNASConfig.tiny(latency_target_ms=2.3, seed=0, epochs=6,
                              steps_per_epoch=2, warmup_epochs=2, batch_size=8)
    # fresh task per engine: its batch RNG is part of the checkpointed state
    macro = cfg.space.macro
    task = SyntheticTask(num_classes=macro.num_classes,
                         resolution=macro.input_resolution,
                         train_size=64, valid_size=32, seed=5)
    return LightNAS(cfg, predictor=tiny_predictor, task=task)


def _assert_identical(resumed, reference) -> None:
    assert resumed.summary() == reference.summary()
    assert resumed.architecture == reference.architecture
    assert resumed.predicted_metric == reference.predicted_metric
    assert resumed.final_lambda == reference.final_lambda
    traj_a, traj_b = resumed.trajectory, reference.trajectory
    assert traj_a.epochs == traj_b.epochs
    assert traj_a.predicted_metric == traj_b.predicted_metric
    assert traj_a.lambda_values == traj_b.lambda_values
    assert traj_a.valid_loss == traj_b.valid_loss
    assert traj_a.temperature == traj_b.temperature
    assert traj_a.architectures == traj_b.architectures


@pytest.fixture(scope="module")
def surrogate_reference(tiny_space, tiny_predictor, tiny_oracle):
    return _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle).search()


@pytest.fixture(scope="module")
def supernet_reference(tiny_space, tiny_predictor):
    return _supernet_engine(tiny_space, tiny_predictor).search()


class TestSurrogateResumeParity:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kill_epoch=st.integers(1, SURROGATE_EPOCHS - 1),
           every=st.integers(1, 3))
    def test_kill_anywhere_resume_is_bit_for_bit(
            self, tmp_path, tiny_space, tiny_predictor, tiny_oracle,
            surrogate_reference, kill_epoch, every):
        # a checkpoint must exist before the crash for resume to have a base
        assume(kill_epoch >= every)
        directory = str(tmp_path / f"kill{kill_epoch}_every{every}")
        engine = _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle)
        with pytest.raises(KeyboardInterrupt):
            engine.search(checkpoint_dir=directory, checkpoint_every=every,
                          journal=KillAtEpoch(kill_epoch))
        resumed = _surrogate_engine(
            tiny_space, tiny_predictor, tiny_oracle
        ).search(resume_from=directory)
        _assert_identical(resumed, surrogate_reference)

    def test_resume_after_completion_reproduces_result(
            self, tmp_path, tiny_space, tiny_predictor, tiny_oracle,
            surrogate_reference):
        directory = str(tmp_path / "full")
        _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle).search(
            checkpoint_dir=directory, checkpoint_every=1)
        resumed = _surrogate_engine(
            tiny_space, tiny_predictor, tiny_oracle
        ).search(resume_from=directory)
        _assert_identical(resumed, surrogate_reference)


class TestSupernetResumeParity:
    @pytest.mark.parametrize("kill_epoch", [2, 4])
    def test_kill_and_resume_is_bit_for_bit(
            self, tmp_path, tiny_space, tiny_predictor, supernet_reference,
            kill_epoch):
        directory = str(tmp_path / f"kill{kill_epoch}")
        engine = _supernet_engine(tiny_space, tiny_predictor)
        with pytest.raises(KeyboardInterrupt):
            engine.search(checkpoint_dir=directory, checkpoint_every=1,
                          journal=KillAtEpoch(kill_epoch))
        resumed = _supernet_engine(tiny_space, tiny_predictor).search(
            resume_from=directory)
        _assert_identical(resumed, supernet_reference)


class TestResumeFailureModes:
    def _checkpointed_dir(self, tmp_path, tiny_space, tiny_predictor,
                          tiny_oracle) -> str:
        directory = str(tmp_path / "ckpts")
        _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle).search(
            checkpoint_dir=directory, checkpoint_every=2)
        return directory

    def test_truncated_checkpoint_fails_loud(self, tmp_path, tiny_space,
                                             tiny_predictor, tiny_oracle):
        directory = self._checkpointed_dir(tmp_path, tiny_space,
                                           tiny_predictor, tiny_oracle)
        latest = sorted(glob.glob(os.path.join(directory, "*.npz")))[-1]
        blob = open(latest, "rb").read()
        with open(latest, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        engine = _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle)
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            engine.search(resume_from=directory)

    def test_config_mismatch_fails_loud(self, tmp_path, tiny_space,
                                        tiny_predictor, tiny_oracle):
        directory = self._checkpointed_dir(tmp_path, tiny_space,
                                           tiny_predictor, tiny_oracle)
        other = LightNASConfig(space=tiny_space, target=2.0, mode="surrogate",
                               epochs=SURROGATE_EPOCHS, steps_per_epoch=2,
                               batch_size=8, seed=3)
        engine = LightNAS(other, predictor=tiny_predictor, oracle=tiny_oracle)
        with pytest.raises(CheckpointError, match="different configuration"):
            engine.search(resume_from=directory)

    def test_wrong_engine_kind_fails_loud(self, tmp_path, tiny_space,
                                          tiny_predictor, tiny_oracle):
        directory = self._checkpointed_dir(tmp_path, tiny_space,
                                           tiny_predictor, tiny_oracle)
        # a checkpoint that an engine of another kind wrote
        latest = sorted(glob.glob(os.path.join(directory, "*.npz")))[-1]
        meta, arrays = load_checkpoint(latest)
        save_checkpoint(latest, {**meta, "kind": "rl"}, arrays)
        engine = _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle)
        with pytest.raises(CheckpointError, match="belongs to engine 'rl'"):
            engine.search(resume_from=directory)

    def test_empty_directory_fails_loud(self, tmp_path, tiny_space,
                                        tiny_predictor, tiny_oracle):
        engine = _surrogate_engine(tiny_space, tiny_predictor, tiny_oracle)
        with pytest.raises(CheckpointError, match="no checkpoint files"):
            engine.search(resume_from=str(tmp_path))


#: (target, seed) of each slot of the resumed grid
GRID = [(2.3, 3), (2.0, 1), (2.6, 3), (2.3, 0)]


def _grid_config(tiny_space, target, seed) -> LightNASConfig:
    return LightNASConfig(space=tiny_space, target=target, mode="surrogate",
                          epochs=SURROGATE_EPOCHS, steps_per_epoch=2,
                          batch_size=8, seed=seed)


def _run_grid(root, tiny_space, tiny_predictor, resume, journal=None):
    """The grid as ``repro stability --jobs 1`` runs it: one fleet task
    and checkpoint sub-directory per slot, all slots in one grid."""
    configs = [_grid_config(tiny_space, target, seed)
               for target, seed in GRID]
    return run_grid(configs, tiny_predictor, journal=journal,
                    checkpoint_root=root, checkpoint_every=1, resume=resume,
                    names=[f"slot{index}" for index in range(len(GRID))])


class TestGridResumeParity:
    def test_killed_grid_resumes_bit_for_bit(self, tmp_path, tiny_space,
                                             tiny_predictor, tiny_oracle,
                                             monkeypatch):
        reference_root = str(tmp_path / "reference")
        references = [
            LightNAS(_grid_config(tiny_space, target, seed),
                     predictor=tiny_predictor, oracle=tiny_oracle).search(
                checkpoint_dir=os.path.join(reference_root, f"slot{i}"),
                checkpoint_every=1)
            for i, (target, seed) in enumerate(GRID)]

        root = str(tmp_path / "grid")
        # slot 2 (the only one at target 2.6) dies at epoch 5 (its epochs
        # 0-4 are checkpointed), after slots 0 and 1 finished; slot 3
        # never starts
        def epoch(journal, **fields):
            if fields["target"] == GRID[2][0] and fields["epoch"] == 5:
                raise KeyboardInterrupt("injected crash at epoch 5")

        with monkeypatch.context() as patch:
            patch.setattr(NullJournal, "epoch", epoch)
            report = _run_grid(root, tiny_space, tiny_predictor,
                               resume=False)
        assert report.interrupted
        assert [r.status for r in report.results] == [
            "ok", "ok", "cancelled", "cancelled"]
        # slots 0 and 1 lose their checkpoints from epoch 3 on, so both
        # resume at epoch 3 and share a batch again
        for name in ("slot0", "slot1"):
            for path in glob.glob(os.path.join(root, name, "*.npz")):
                if int(path[-9:-4]) >= 3:
                    os.remove(path)

        journal = RunJournal(str(tmp_path / "resume.jsonl"))
        resumed = _run_grid(root, tiny_space, tiny_predictor, resume=True,
                            journal=journal).values()
        journal.close()
        headers = [e for e in read_journal(journal.path)
                   if e["event"] == "run_header"]
        assert [(h["start_epoch"], h["batch_slots"]) for h in headers] == [
            (3, 2), (3, 2), (5, 1), (0, 1)]
        last = f"ckpt_epoch{SURROGATE_EPOCHS - 1:05d}.npz"
        for index, (result, reference) in enumerate(zip(resumed,
                                                        references)):
            _assert_identical(result, reference)
            meta, arrays = load_checkpoint(
                os.path.join(root, f"slot{index}", last))
            ref_meta, ref_arrays = load_checkpoint(
                os.path.join(reference_root, f"slot{index}", last))
            assert meta == ref_meta
            assert set(arrays) == set(ref_arrays)
            for key in arrays:
                assert np.array_equal(arrays[key], ref_arrays[key]), key

    def test_corrupt_checkpoint_fails_only_its_search(self, tmp_path,
                                                      tiny_space,
                                                      tiny_predictor):
        """A resumed grid with one search's latest checkpoint truncated:
        that task alone fails, loudly, and the other searches still stack
        and finish bit for bit."""
        root = str(tmp_path / "grid")
        references = _run_grid(root, tiny_space, tiny_predictor,
                               resume=False).values()
        # every search resumes at epoch 3, slot 1 from a truncated file
        for index in range(len(GRID)):
            for path in glob.glob(os.path.join(root, f"slot{index}",
                                               "*.npz")):
                if int(path[-9:-4]) >= 3:
                    os.remove(path)
        latest = os.path.join(root, "slot1", "ckpt_epoch00002.npz")
        blob = open(latest, "rb").read()
        with open(latest, "wb") as handle:
            handle.write(blob[: len(blob) // 3])

        journal = RunJournal(str(tmp_path / "resume.jsonl"))
        report = _run_grid(root, tiny_space, tiny_predictor, resume=True,
                           journal=journal)
        journal.close()
        assert [r.status for r in report.results] == [
            "ok", "failed", "ok", "ok"]
        assert report.results[1].error.startswith("CheckpointError: ")
        assert "corrupt or truncated" in report.results[1].error
        for index in (0, 2, 3):
            _assert_identical(report.results[index].value,
                              references[index])
        headers = [e for e in read_journal(journal.path)
                   if e["event"] == "run_header"]
        assert [(h["start_epoch"], h["batch_slots"]) for h in headers] == [
            (3, 3)] * 3
