"""Tests of the on-disk archive: round-trip, crash tails, content merge."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.query import describe_rows
from repro.archive.segments import unframe_line
from repro.archive.store import (
    ArchitectureArchive,
    ArchiveError,
    ArchRecord,
    arch_key,
    repair_archive,
)

L, K = 4, 7  # tiny-space geometry used throughout


def make_archive(tmp_path, name="arc.jsonl"):
    return ArchitectureArchive(str(tmp_path / name), num_layers=L,
                               num_operators=K)


def wal_payloads(path):
    """The record payloads of an archive's WAL, in write order."""
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        lines = handle.read().split("\n")[1:-1]
    return [unframe_line(line, path, n) for n, line in enumerate(lines, 2)]


class TestContentAddressing:
    def test_key_is_stable_and_distinct(self):
        a = arch_key((1, 2, 3, 0), K)
        assert a == arch_key((1, 2, 3, 0), K)
        assert a != arch_key((1, 2, 3, 1), K)
        # the address hashes the one-hot matrix, so K is part of the identity
        assert a != arch_key((1, 2, 3, 0), K + 1)

    def test_key_validates_range(self):
        with pytest.raises(ValueError):
            arch_key((0, 1, K, 2), K)
        with pytest.raises(ValueError):
            arch_key((-1, 0, 0, 0), K)
        with pytest.raises(ValueError):
            arch_key((), K)

    def test_same_genotype_merges_into_one_record(self, tmp_path):
        arc = make_archive(tmp_path)
        arc.add((1, 2, 3, 0), device="dev-a", latency_ms=5.0, engine="one")
        arc.add((1, 2, 3, 0), device="dev-b", latency_ms=9.0,
                score=71.5, engine="two")
        assert len(arc) == 1
        index = arc.index()
        assert index.devices == ("dev-a", "dev-b")
        assert index.device_column("dev-a", "latency_ms")[0] == 5.0
        assert index.device_column("dev-b", "latency_ms")[0] == 9.0
        assert index.score[0] == 71.5
        # provenance stays in the WAL: one line per write, each its own
        arc.close()
        assert [p["provenance"]["engine"]
                for p in wal_payloads(arc.path)] == ["one", "two"]

    def test_merge_survives_reopen(self, tmp_path):
        arc = make_archive(tmp_path)
        arc.add((1, 2, 3, 0), device="dev-a", latency_ms=5.0)
        arc.add((1, 2, 3, 0), device="dev-a", energy_mj=80.0)
        arc.close()
        reopened = make_archive(tmp_path)
        assert len(reopened) == 1
        index = reopened.index()
        assert index.device_column("dev-a", "latency_ms")[0] == 5.0
        assert index.device_column("dev-a", "energy_mj")[0] == 80.0
        assert np.isnan(index.device_column("dev-a",
                                            "measured_latency_ms")[0])
        reopened.close()


@st.composite
def populations(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=K - 1)
                    for _ in range(L)]),
        min_size=n, max_size=n))
    values = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        min_size=n, max_size=n))
    return rows, values


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(populations())
    def test_write_reopen_identical_index(self, tmp_path_factory, pop):
        rows, values = pop
        path = str(tmp_path_factory.mktemp("hyp") / "arc.jsonl")
        arc = ArchitectureArchive(path, num_layers=L, num_operators=K)
        for row, value in zip(rows, values):
            arc.add(row, device="dev", latency_ms=value, macs_m=value / 2,
                    score=value / 3, engine="hyp", seed=1)
        index = arc.index()
        arc.close()
        reopened = ArchitectureArchive(path, num_layers=L, num_operators=K)
        reloaded = reopened.index()
        # dedup happens on write AND on replay, so the index matches exactly
        np.testing.assert_array_equal(index.ops, reloaded.ops)
        assert index.keys == reloaded.keys
        np.testing.assert_array_equal(index.score, reloaded.score)
        np.testing.assert_array_equal(index.macs_m, reloaded.macs_m)
        assert index.devices == reloaded.devices
        np.testing.assert_array_equal(index.cost, reloaded.cost)
        reopened.close()

    def test_float_values_round_trip_bit_for_bit(self, tmp_path):
        # JSON floats round-trip exactly in Python (repr shortest-form);
        # a replayed index equals the live one only because of this
        value = float(np.float64(1.0) / 3.0) * 17.123456789
        arc = make_archive(tmp_path)
        arc.add((0, 1, 2, 3), device="dev", latency_ms=value, score=value)
        arc.close()
        reopened = make_archive(tmp_path)
        index = reopened.index()
        assert index.device_column("dev", "latency_ms")[0] == value
        assert index.score[0] == value
        reopened.close()


class TestLoudFailures:
    def fill(self, tmp_path):
        arc = make_archive(tmp_path)
        for i in range(5):
            arc.add((i % K, 0, 1, 2), device="dev", latency_ms=float(i))
        arc.close()
        return str(tmp_path / "arc.jsonl")

    def test_truncated_tail_raises(self, tmp_path):
        path = self.fill(tmp_path)
        with open(path, "r+", encoding="utf-8") as handle:
            raw = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(raw[:-10])  # cut mid-record, no trailing newline
        with pytest.raises(ArchiveError, match="repair_archive"):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_corrupt_line_raises(self, tmp_path):
        path = self.fill(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[3] = lines[3][:12] + "XX" + lines[3][14:]  # flip payload bytes
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ArchiveError, match="CRC"):
            ArchitectureArchive(path, num_layers=L, num_operators=K)

    def test_repair_truncates_to_longest_valid_prefix(self, tmp_path):
        path = self.fill(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("deadbeef {broken")  # crashed writer's tail
        with pytest.raises(ArchiveError):
            ArchitectureArchive(path, num_layers=L, num_operators=K)
        dropped = repair_archive(path)
        assert dropped == 1
        recovered = ArchitectureArchive(path, num_layers=L, num_operators=K)
        assert len(recovered) == 5
        recovered.close()

    def test_repair_with_unreadable_header_raises(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not an archive at all\n")
        with pytest.raises(ArchiveError, match="nothing to salvage"):
            repair_archive(path)

    def test_geometry_mismatch_raises(self, tmp_path):
        path = self.fill(tmp_path)
        with pytest.raises(ArchiveError, match="separate archive"):
            ArchitectureArchive(path, num_layers=L + 1, num_operators=K)

    def test_new_archive_requires_geometry(self, tmp_path):
        with pytest.raises(ArchiveError, match="space geometry"):
            ArchitectureArchive(str(tmp_path / "missing.jsonl"))

    def test_not_an_archive_magic(self, tmp_path):
        path = str(tmp_path / "other.jsonl")
        import json
        import zlib
        payload = json.dumps({"magic": "something-else", "version": 1})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{zlib.crc32(payload.encode()):08x} {payload}\n")
        with pytest.raises(ArchiveError, match="bad magic"):
            ArchitectureArchive(path)

    def test_wrong_geometry_record_rejected_on_add(self, tmp_path):
        arc = make_archive(tmp_path)
        with pytest.raises(ValueError):
            arc.add((1, 2, 3), device="dev", latency_ms=1.0)
        arc.close()


class TestIndexAndStats:
    def test_index_caches_until_append(self, tmp_path):
        arc = make_archive(tmp_path)
        arc.add((0, 0, 0, 0), macs_m=1.0)
        first = arc.index()
        assert arc.index() is first
        arc.add((1, 1, 1, 1), macs_m=2.0)
        second = arc.index()
        assert second is not first
        assert len(second) == 2
        arc.close()

    def test_missing_values_are_nan(self, tmp_path):
        arc = make_archive(tmp_path)
        arc.add((0, 0, 0, 0), device="dev", latency_ms=4.0)
        arc.add((1, 1, 1, 1), macs_m=2.0, score=50.0)
        index = arc.index()
        assert np.isnan(index.score[0]) and index.score[1] == 50.0
        assert np.isnan(index.macs_m[0]) and index.macs_m[1] == 2.0
        column = index.device_column("dev", "latency_ms")
        assert column[0] == 4.0 and np.isnan(column[1])
        arc.close()

    def test_stats_counts(self, tmp_path):
        arc = make_archive(tmp_path)
        arc.add((0, 0, 0, 0), device="a", latency_ms=1.0, score=10.0)
        arc.add((1, 1, 1, 1), device="b", energy_mj=2.0, macs_m=3.0)
        stats = arc.stats()
        assert stats["records"] == 2
        assert stats["devices"] == {"a": 1, "b": 1}
        assert stats["with_score"] == 1
        assert stats["with_macs"] == 1
        arc.close()

    def test_add_population_single_flush(self, tmp_path):
        arc = make_archive(tmp_path)
        ops = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 1, 2, 3]])
        written = arc.add_population(
            ops, device="dev", latency_ms=np.array([1.0, 2.0, 3.0]),
            engine="pop")
        assert written == 3
        assert len(arc) == 2  # duplicate row merged
        # last write wins for the duplicate genotype
        index = arc.index()
        assert index.ops[0].tolist() == [0, 1, 2, 3]
        assert index.device_column("dev", "latency_ms").tolist() == [3.0, 2.0]
        arc.close()

    def test_add_population_hashes_each_row_once(self, tmp_path,
                                                 monkeypatch):
        from repro.archive import store

        calls = []

        def counting_key(op_indices, num_operators):
            calls.append(tuple(op_indices))
            return arch_key(op_indices, num_operators)

        monkeypatch.setattr(store, "arch_key", counting_key)
        arc = make_archive(tmp_path)
        ops = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 1, 2, 3], [6, 6, 6, 6]])
        arc.add_population(ops, device="dev",
                           latency_ms=np.array([1.0, 2.0, 3.0, 4.0]))
        assert len(calls) == len(ops)
        assert len(arc) == 3
        arc.close()

    def test_add_record_still_checks_the_key(self, tmp_path):
        arc = make_archive(tmp_path)
        record = arc.add((0, 1, 2, 3), macs_m=1.0)
        forged = ArchRecord(op_indices=(3, 2, 1, 0), key=record.key)
        with pytest.raises(ValueError, match="key does not match"):
            arc.add_record(forged)
        assert len(arc) == 1
        arc.close()


_INDEX_ARRAYS = ("ops", "layers", "score", "macs_m", "params_m", "cost")


class TestSnapshotIsolation:
    """A held ``index()`` snapshot never changes after later writes.

    Snapshots are read-only views of the live arrays, not copies: appends
    write only rows past them, and a merge into a row they cover must first
    move the live arrays to a copy.  A snapshot that stayed a bare view
    would show a later merge's values here.  Each kind of write runs right
    after a fresh snapshot (so that snapshot still shares the live arrays),
    and every snapshot taken so far is checked after each write.
    """

    @staticmethod
    def _hold(index):
        rows = np.arange(len(index))
        return (index, {name: np.array(getattr(index, name))
                        for name in _INDEX_ARRAYS},
                index.keys, index.devices,
                [describe_rows(index, rows, device)
                 for device in (None, "xavier", "nano")])

    @staticmethod
    def _unchanged(held, write):
        for index, arrays, keys, devices, described in held:
            for name, expected in arrays.items():
                array = getattr(index, name)
                assert not array.flags.writeable, (write, name)
                np.testing.assert_array_equal(array, expected,
                                              err_msg=f"{write}: {name}")
            assert index.keys == keys and index.devices == devices, write
            rows = np.arange(len(index))
            assert [describe_rows(index, rows, device)
                    for device in (None, "xavier", "nano")] == described, \
                write

    @pytest.mark.parametrize("boot", ["live", "segment"])
    def test_held_snapshot_survives_every_kind_of_write(self, tmp_path,
                                                        boot):
        rng = np.random.default_rng(5)
        ops = np.unique(rng.integers(0, K, size=(300, L)), axis=0)
        rng.shuffle(ops)
        held_ops, later_ops = ops[:40], ops[40:]
        arc = make_archive(tmp_path)
        arc.add_population(held_ops[:30], device="xavier",
                           latency_ms=rng.uniform(1, 9, 30),
                           macs_m=rng.uniform(50, 600, 30),
                           score=rng.uniform(50, 80, 30))
        if boot == "segment":
            arc.compact()
            arc.close()
            arc = make_archive(tmp_path)
            assert arc.boot["mode"] == "segment"
        # a written-to archive: its snapshots view live arrays
        arc.add_population(held_ops[30:], device="xavier",
                           latency_ms=rng.uniform(1, 9, 10))
        held = []

        # a merge into a held row: same genotype, new latency and score
        held.append(self._hold(arc.index()))
        arc.add(held_ops[3], device="xavier", latency_ms=99.0, score=1.0)
        self._unchanged(held, "merge")
        # a new device column (sorted before the existing one), then a
        # merge into a held row
        held.append(self._hold(arc.index()))
        arc.add(later_ops[0], device="nano", latency_ms=7.0)
        arc.add(held_ops[5], device="nano", latency_ms=8.0, score=2.0)
        self._unchanged(held, "new device")
        # appends past the capacity, then a merge into a held row
        held.append(self._hold(arc.index()))
        arc.add_population(later_ops[1:], device="xavier",
                           latency_ms=rng.uniform(1, 9, len(later_ops) - 1))
        arc.add(held_ops[7], device="nano", energy_mj=3.0, macs_m=1.0)
        self._unchanged(held, "appends")

        index = arc.index()
        assert len(index) == len(ops) and index.devices == ("nano", "xavier")
        assert index.device_column("xavier", "latency_ms")[3] == 99.0
        assert index.score[3] == 1.0 and index.score[5] == 2.0
        assert index.device_column("nano", "latency_ms")[5] == 8.0
        assert index.device_column("nano", "energy_mj")[7] == 3.0
        assert index.macs_m[7] == 1.0
        arc.close()


class TestConcurrency:
    def test_concurrent_index_and_merge_race(self, tmp_path):
        """Readers snapshotting index() while writers merge must never see
        a torn view (pre-fix: _merge dropped _index while from_records was
        re-stacking it on another thread)."""
        import sys
        import threading

        arc = make_archive(tmp_path)
        rng = np.random.default_rng(0)
        # a big seed population makes every index() rebuild slow enough to
        # overlap with merges (the pre-fix failure needs that overlap)
        seed_ops = rng.integers(0, K, size=(1500, L))
        arc.add_population(seed_ops, device="xavier",
                           latency_ms=rng.uniform(1, 9, 1500))

        stop = threading.Event()
        failures = []

        def reader():
            local = np.random.default_rng(threading.get_ident() % 2**31)
            last = 0
            while not stop.is_set():
                # pre-fix, index() re-stacked every record with no lock:
                # overlapping rebuilds raced _merge's cache drop, so a
                # reader could observe a torn or *older* view (a slow
                # rebuild overwriting a newer one)
                try:
                    index = arc.index()
                    n = len(index)
                    assert n >= last, f"index went backwards {last}->{n}"
                    last = n
                    assert index.ops.shape == (n, L)
                    assert index.cost.shape[0] == n
                    assert len(index.keys) == n
                    assert list(index.devices) == sorted(index.devices)
                    if n:
                        row = int(local.integers(0, n))
                        assert arch_key(index.ops[row], K) == index.keys[row]
                except Exception as exc:
                    failures.append(exc)
                    stop.set()

        # one writer appends fresh genotypes (the index must grow), the
        # other merges new devices into existing rows (cells must widen)
        devices = [f"dev-{chr(ord('a') + i)}" for i in range(12)]
        seen = {arch_key(row, K) for row in seed_ops}
        fresh = []
        for a in range(K):
            for b in range(K):
                for c in range(K):
                    for d in range(K):
                        if len(fresh) == 200:
                            break
                        combo = (a, b, c, d)
                        if arch_key(combo, K) not in seen:
                            fresh.append(combo)

        def growth_writer():
            for i, combo in enumerate(fresh):
                arc.add(combo, device=devices[i % len(devices)],
                        latency_ms=float(i), score=50.0 + i)
                try:
                    # the post-append view must include the append
                    assert len(arc.index()) == len(arc)
                except Exception as exc:
                    failures.append(exc)
                    stop.set()
                    return

        def merge_writer(seed):
            local = np.random.default_rng(seed)
            for _ in range(200):
                ops = seed_ops[int(local.integers(0, len(seed_ops)))]
                device = devices[int(local.integers(0, len(devices)))]
                arc.add(ops, device=device,
                        latency_ms=float(local.uniform(1, 9)),
                        score=float(local.uniform(40, 80)))

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=growth_writer),
                   threading.Thread(target=merge_writer, args=(202,))]
        # an index rebuild is ~1 ms; with the default 5 ms GIL switch
        # interval it would rarely be preempted and the race would hide
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join()
            stop.set()
            for t in readers:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert not failures

        # the live view converged to exactly what a fresh replay rebuilds
        reopened = make_archive(tmp_path)
        live, replayed = arc.index(), reopened.index()
        assert live.keys == replayed.keys
        assert live.devices == replayed.devices
        np.testing.assert_array_equal(np.asarray(live.ops),
                                      np.asarray(replayed.ops))
        np.testing.assert_array_equal(np.asarray(live.cost),
                                      np.asarray(replayed.cost))
        np.testing.assert_array_equal(np.asarray(live.score),
                                      np.asarray(replayed.score))
        arc.close()
        reopened.close()
