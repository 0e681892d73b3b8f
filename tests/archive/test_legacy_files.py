"""Archives written by older builds keep booting.

Older builds kept a second copy of every record beside the stacked index:
WAL lines could carry an ``"extras"`` map of cached predictions, and every
segment directory held an ``aux.jsonl`` of full record payloads.  Nothing
reads either any more.  An archive that holds them must boot to the index
a full WAL replay builds and answer ``repro query`` the same way.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.archive.segments import frame_line, segment_root_for
from repro.archive.store import ArchitectureArchive, arch_key
from repro.cli import main

L, K = 4, 7  # tiny-space geometry used throughout

QUERIES = (
    ["--k", "8"],
    ["--k", "8", "--objective", "latency_ms", "--device", "xavier",
     "--budget", "macs_m=300"],
    ["--pareto", "--device", "xavier"],
    ["--nearest", "1,2,3,4", "--k", "6", "--device", "xavier"],
)


def cache_line(ops, rng):
    """One WAL line as the old evaluation cache flushed it."""
    top1 = float(rng.uniform(60, 76))
    return {"key": arch_key(ops, K), "ops": [int(i) for i in ops],
            "score": top1,
            "extras": {"pred:0123456789ab": float(rng.uniform(1, 40)),
                       "top1_e360:ba9876543210": top1},
            "provenance": {"engine": "ofa-evolution", "seed": 3,
                           "fingerprint": "f" * 12}}


def append_lines(path, payloads):
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        for payload in payloads:
            handle.write(frame_line(json.dumps(payload)))


def strip_extras(path, out):
    """A copy of the WAL at ``path`` with every ``extras`` map removed."""
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        lines = handle.read().split("\n")[:-1]
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(lines[0] + "\n")
        for line in lines[1:]:
            payload = json.loads(line.partition(" ")[2])
            payload.pop("extras", None)
            handle.write(frame_line(json.dumps(payload)))


def segment_dir(path):
    root = segment_root_for(path)
    (name,) = [d for d in os.listdir(root) if d.startswith("seg-")]
    return os.path.join(root, name)


@pytest.fixture
def legacy(tmp_path):
    """A WAL with cache lines, cut into a segment that holds an
    ``aux.jsonl``, plus a WAL tail of cache lines written after the cut."""
    rng = np.random.default_rng(5)
    path = str(tmp_path / "legacy.jsonl")
    ops = rng.integers(0, K, size=(30, L))
    with ArchitectureArchive(path, num_layers=L, num_operators=K) as arc:
        arc.add_population(ops, device="xavier",
                           latency_ms=rng.uniform(1, 50, len(ops)),
                           macs_m=rng.uniform(50, 500, len(ops)),
                           score=rng.uniform(40, 80, len(ops)),
                           engine="legacy", seed=1)
    append_lines(path, [cache_line(ops[0], rng), cache_line(ops[3], rng),
                        cache_line((6, 6, 6, 6), rng)])
    with ArchitectureArchive(path) as arc:
        arc.compact()
        keys = arc.index().keys
        rows = arc.index().ops.tolist()
    with open(os.path.join(segment_dir(path), "aux.jsonl"), "w",
              encoding="utf-8", newline="\n") as handle:
        for key, row in zip(keys, rows):
            handle.write(frame_line(json.dumps({"key": key, "ops": row})))
    # cache lines after the cut: one merges into a segment row, one is new
    append_lines(path, [cache_line(ops[5], rng),
                        cache_line((0, 6, 0, 6), rng)])
    return path


def assert_index_equal(a, b):
    assert a.keys == b.keys
    assert a.devices == b.devices
    for name in ("ops", "score", "macs_m", "params_m", "cost"):
        np.testing.assert_array_equal(np.asarray(getattr(a, name)),
                                      np.asarray(getattr(b, name)), name)


def query_outputs(path, capsys):
    outputs = []
    for args in QUERIES:
        assert main(["query", "--archive", path, *args]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


class TestLegacyFiles:
    def test_legacy_archive_boots_to_the_full_replay_index(self, legacy,
                                                           tmp_path):
        booted = ArchitectureArchive(legacy)
        assert booted.boot["mode"] == "segment"
        assert booted.boot["tail_records"] == 2
        replayed = ArchitectureArchive(legacy, use_segments=False)
        assert replayed.boot["mode"] == "log-replay"
        assert_index_equal(replayed.index(), booted.index())
        # the extras maps change nothing: a WAL without them is the same
        stripped = str(tmp_path / "stripped.jsonl")
        strip_extras(legacy, stripped)
        with ArchitectureArchive(stripped) as twin:
            assert_index_equal(twin.index(), booted.index())
        index = booted.index()
        assert arch_key((6, 6, 6, 6), K) in index.keys
        assert arch_key((0, 6, 0, 6), K) in index.keys
        booted.close()
        replayed.close()

    def test_query_output_matches_a_full_replay(self, legacy, tmp_path,
                                                capsys):
        plain = str(tmp_path / "plain.jsonl")
        shutil.copyfile(legacy, plain)   # the same WAL, no segment
        assert query_outputs(legacy, capsys) == query_outputs(plain, capsys)

    def test_damaged_aux_jsonl_is_ignored(self, legacy):
        aux = os.path.join(segment_dir(legacy), "aux.jsonl")
        with open(aux, "r", encoding="utf-8", newline="\n") as handle:
            lines = handle.read().split("\n")
        lines[2], lines[3] = lines[3], lines[2]     # break key alignment
        with open(aux, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines)[:-7])     # and truncate the tail
        arc = ArchitectureArchive(legacy)
        assert arc.boot["mode"] == "segment"
        with ArchitectureArchive(legacy, use_segments=False) as replayed:
            assert_index_equal(replayed.index(), arc.index())
        # re-compaction replaces the old segment with one of arrays only
        cut = arc.compact()
        arc.close()
        assert "aux.jsonl" not in os.listdir(cut)
        assert sorted(os.listdir(segment_root_for(legacy))) == [
            "CURRENT", os.path.basename(cut)]
