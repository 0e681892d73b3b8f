"""Segment-backed storage: compaction, mmap boot, tail replay, parity."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.archive.segments import load_current_segment, segment_root_for
from repro.archive.store import ArchitectureArchive, ArchiveError, arch_key

L, K = 4, 7  # tiny-space geometry used throughout


def make_archive(tmp_path, name="arc.jsonl", **kwargs):
    return ArchitectureArchive(str(tmp_path / name), num_layers=L,
                               num_operators=K, **kwargs)


def fill(archive, n, seed=0, device="xavier"):
    rng = np.random.default_rng(seed)
    ops = rng.integers(0, K, size=(n, L))
    archive.add_population(
        ops, device=device,
        latency_ms=rng.uniform(1, 50, n),
        energy_mj=rng.uniform(10, 900, n),
        macs_m=rng.uniform(50, 500, n),
        score=rng.uniform(40, 80, n), engine="seg-test", seed=seed)
    return ops


def assert_index_equal(a, b):
    assert a.keys == b.keys
    assert a.devices == b.devices
    np.testing.assert_array_equal(np.asarray(a.ops), np.asarray(b.ops))
    np.testing.assert_array_equal(np.asarray(a.score), np.asarray(b.score))
    np.testing.assert_array_equal(np.asarray(a.macs_m), np.asarray(b.macs_m))
    np.testing.assert_array_equal(np.asarray(a.params_m),
                                  np.asarray(b.params_m))
    np.testing.assert_array_equal(np.asarray(a.cost), np.asarray(b.cost))


class TestCompactAndBoot:
    def test_compact_then_reopen_boots_from_segment(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 40)
        arc.compact()
        arc.close()
        reopened = make_archive(tmp_path)
        assert reopened.boot["mode"] == "segment"
        assert reopened.boot["tail_records"] == 0
        assert len(reopened) == len(reopened.index())
        reopened.close()

    def test_segment_boot_index_is_bit_identical_to_log_replay(self,
                                                               tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 60)
        arc.compact()
        arc.close()
        via_log = make_archive(tmp_path, use_segments=False)
        via_segment = make_archive(tmp_path)
        assert via_log.boot["mode"] == "log-replay"
        assert via_segment.boot["mode"] == "segment"
        assert_index_equal(via_log.index(), via_segment.index())
        via_log.close()
        via_segment.close()

    def test_wal_tail_after_compaction_is_replayed(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 30)
        arc.compact()
        arc.add((6, 6, 6, 6), device="xavier", latency_ms=2.5, score=79.0)
        arc.close()
        reopened = make_archive(tmp_path)
        assert reopened.boot["mode"] == "segment"
        assert reopened.boot["tail_records"] == 1
        assert (6, 6, 6, 6) in reopened
        index = reopened.index()
        row = index.keys.index(arch_key((6, 6, 6, 6), K))
        assert index.device_column("xavier", "latency_ms")[row] == 2.5
        assert index.score[row] == 79.0
        assert_index_equal(make_archive(tmp_path,
                                        use_segments=False).index(),
                           reopened.index())
        reopened.close()

    def test_tail_merge_into_segment_row(self, tmp_path):
        """A post-compaction append to an archived genotype merges fully."""
        arc = make_archive(tmp_path)
        arc.add((1, 2, 3, 0), device="xavier", latency_ms=5.0, score=60.0)
        arc.compact()
        arc.add((1, 2, 3, 0), device="edge-nano", latency_ms=9.0, score=61.0)
        arc.close()
        reopened = make_archive(tmp_path)
        assert len(reopened) == 1
        # index cells reflect the merge without materializing records
        index = reopened.index()
        assert index.devices == ("edge-nano", "xavier")
        assert index.device_column("xavier", "latency_ms")[0] == 5.0
        assert index.device_column("edge-nano", "latency_ms")[0] == 9.0
        assert index.score[0] == 61.0
        assert np.isnan(index.device_column("xavier", "energy_mj")[0])
        # a segment cut from the merged row keeps both writes
        reopened.compact()
        reopened.close()
        recompacted = make_archive(tmp_path)
        assert recompacted.boot["tail_records"] == 0
        assert_index_equal(index, recompacted.index())
        recompacted.close()

    def test_tail_device_not_in_segment_widens_sorted(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 10, device="xavier")
        arc.compact()
        arc.add((0, 1, 2, 3), device="a-new-device", energy_mj=7.0)
        arc.close()
        reopened = make_archive(tmp_path)
        reference = make_archive(tmp_path, use_segments=False)
        assert reopened.index().devices == reference.index().devices
        assert_index_equal(reference.index(), reopened.index())
        reopened.close()
        reference.close()

    def test_records_parity_after_segment_boot(self, tmp_path):
        """Every record's merged cells agree between a segment boot, a
        re-compaction from that boot, and a full log replay."""
        arc = make_archive(tmp_path)
        ops = fill(arc, 25)
        arc.add((0, 0, 0, 0), params_m=3.5, config_fingerprint="fp")
        arc.compact()
        arc.close()
        booted = make_archive(tmp_path)
        booted.add_population(ops[:5], device="edge-nano",
                              measured_latency_ms=np.arange(5.0))
        booted.add(ops[7], score=12.5)
        booted.compact()
        booted.close()
        via_log = make_archive(tmp_path, use_segments=False)
        via_segment = make_archive(tmp_path)
        assert via_segment.boot["tail_records"] == 0
        assert_index_equal(via_log.index(), via_segment.index())
        index = via_segment.index()
        row = index.keys.index(arch_key(ops[7], K))
        assert index.score[row] == 12.5
        assert index.params_m[index.keys.index(arch_key((0, 0, 0, 0), K))] \
            == 3.5
        via_log.close()
        via_segment.close()

    def test_appends_after_segment_boot_extend_the_snapshot(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 12)
        arc.compact()
        arc.close()
        reopened = make_archive(tmp_path)
        before = reopened.index()
        reopened.add((5, 5, 5, 5), device="xavier", latency_ms=1.0)
        after = reopened.index()
        assert after is not before
        assert len(after) == len(before) + 1
        # the earlier snapshot is immutable — readers holding it are safe
        assert len(before) == 12 or len(before) == len(set(before.keys))
        reopened.close()

    def test_empty_archive_compacts_and_reopens(self, tmp_path):
        arc = make_archive(tmp_path)
        arc.compact()
        arc.close()
        reopened = make_archive(tmp_path)
        assert reopened.boot["mode"] == "segment"
        assert len(reopened) == 0
        reopened.close()

    def test_recompaction_garbage_collects_old_segments(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 8, seed=1)
        arc.compact()
        fill(arc, 8, seed=2)
        arc.compact()
        root = segment_root_for(arc.path)
        segments = [d for d in os.listdir(root) if d.startswith("seg-")]
        assert segments == ["seg-0000000002"]
        arc.close()

    def test_discard_segments_forces_log_replay(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 8)
        arc.compact()
        arc.close()
        shutil.rmtree(segment_root_for(str(tmp_path / "arc.jsonl")))
        reopened = make_archive(tmp_path)
        assert reopened.boot["mode"] == "log-replay"
        reopened.close()


class TestLoudFailures:
    def compacted(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 10)
        arc.compact()
        arc.close()
        return arc.path

    def test_corrupt_current_pointer_raises(self, tmp_path):
        path = self.compacted(tmp_path)
        current = os.path.join(segment_root_for(path), "CURRENT")
        with open(current, "w", encoding="utf-8") as handle:
            handle.write("deadbeef {broken\n")
        with pytest.raises(ArchiveError, match="CRC"):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_corrupt_manifest_raises(self, tmp_path):
        path = self.compacted(tmp_path)
        root = segment_root_for(path)
        seg = [d for d in os.listdir(root) if d.startswith("seg-")][0]
        manifest = os.path.join(root, seg, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write("not a manifest\n")
        with pytest.raises(ArchiveError):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_missing_array_raises(self, tmp_path):
        path = self.compacted(tmp_path)
        root = segment_root_for(path)
        seg = [d for d in os.listdir(root) if d.startswith("seg-")][0]
        os.unlink(os.path.join(root, seg, "cost.npy"))
        with pytest.raises(ArchiveError, match="recompact"):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_rewritten_wal_is_detected(self, tmp_path):
        """A segment must never be served against a log it doesn't match."""
        path = self.compacted(tmp_path)
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            lines = handle.read().split("\n")
        # drop a record line: same length ordering, different content
        del lines[3]
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines))
        with pytest.raises(ArchiveError, match="recompact"):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_truncated_wal_is_detected(self, tmp_path):
        path = self.compacted(tmp_path)
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            lines = handle.read().split("\n")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines[:4]) + "\n")
        with pytest.raises(ArchiveError, match="recompact"):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_load_current_segment_absent_is_none(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 3)
        arc.close()
        assert load_current_segment(arc.path) is None


class TestReadOnly:
    def test_read_only_serves_but_rejects_writes(self, tmp_path):
        arc = make_archive(tmp_path)
        ops = fill(arc, 10)
        arc.compact()
        arc.close()
        ro = make_archive(tmp_path, read_only=True)
        assert ro.boot["mode"] == "segment"
        assert len(ro.index()) == len(ro)
        assert tuple(ops[0]) in ro
        with pytest.raises(ArchiveError, match="read-only"):
            ro.add((0, 0, 0, 0), macs_m=1.0)
        with pytest.raises(ArchiveError, match="read-only"):
            ro.add_population(np.zeros((1, L), dtype=np.int64))
        with pytest.raises(ArchiveError, match="read-only"):
            ro.compact()
        assert ro.stats()["read_only"] is True
        ro.close()

    def test_read_only_missing_file_raises(self, tmp_path):
        with pytest.raises(ArchiveError, match="read-only"):
            make_archive(tmp_path, name="missing.jsonl", read_only=True)

    def test_read_only_snapshot_arrays_are_immutable(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 5)
        arc.compact()
        arc.close()
        ro = make_archive(tmp_path, read_only=True)
        index = ro.index()
        with pytest.raises(ValueError):
            index.score[0] = 1.0
        ro.close()


class TestCompactionIsCrashSafe:
    def test_half_written_staging_directory_is_ignored_and_collected(
            self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 6)
        arc.compact()
        root = segment_root_for(arc.path)
        litter = os.path.join(root, "seg-0000000009.tmp-dead")
        os.makedirs(litter)
        with open(os.path.join(litter, "ops.npy"), "wb") as handle:
            handle.write(b"partial")
        arc.close()
        reopened = make_archive(tmp_path)          # staging dir is not CURRENT
        assert reopened.boot["mode"] == "segment"
        reopened.compact()                          # recompaction GCs it
        assert not os.path.exists(litter)
        reopened.close()

    def test_current_survives_json_round_trip(self, tmp_path):
        arc = make_archive(tmp_path)
        fill(arc, 4)
        segment = arc.compact()
        arc.close()
        current = os.path.join(segment_root_for(arc.path), "CURRENT")
        with open(current, encoding="utf-8") as handle:
            payload = json.loads(handle.read().split(" ", 1)[1])
        assert payload["segment"] == os.path.basename(segment)
