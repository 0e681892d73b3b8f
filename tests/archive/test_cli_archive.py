"""CLI surface added with the archive subsystem.

``repro serve`` itself is exercised over HTTP in ``test_service.py`` and by
the CI smoke test; here we cover the offline commands and the new flags.
"""

import json

import numpy as np
import pytest

from repro.archive.store import ArchitectureArchive
from repro.cli import build_parser, main
from repro.hardware.flops import count_macs_many, count_params_many
from repro.hardware.latency import LatencyModel
from repro.hardware.device import EDGE_NANO, XAVIER_MAXN


@pytest.fixture
def tiny_archive(tmp_path, tiny_space):
    rng = np.random.default_rng(11)
    path = str(tmp_path / "arc.jsonl")
    ops = tiny_space.sample_indices(25, rng)
    latency = LatencyModel(tiny_space, EDGE_NANO)
    with ArchitectureArchive(path, space=tiny_space) as arc:
        arc.add_population(
            ops, device=EDGE_NANO.name,
            latency_ms=latency.latency_many(ops),
            macs_m=count_macs_many(tiny_space, ops) / 1e6,
            params_m=count_params_many(tiny_space, ops) / 1e6,
            score=rng.uniform(60, 76, size=len(ops)), engine="fixture")
    return path, ops


class TestPredictFlags:
    def test_device_changes_the_prediction(self, tiny_space, capsys):
        arch = ",".join("1" for _ in range(tiny_space.num_layers))
        assert main(["predict", "--tiny", "--arch", arch]) == 0
        xavier = capsys.readouterr().out
        assert main(["predict", "--tiny", "--arch", arch,
                     "--device", "edge-nano"]) == 0
        nano = capsys.readouterr().out
        assert "edge-nano" in nano and "xavier" in xavier
        assert xavier != nano

    def test_unknown_device_fails_loudly(self, tiny_space):
        arch = ",".join("1" for _ in range(tiny_space.num_layers))
        with pytest.raises(SystemExit, match="unknown device"):
            main(["predict", "--tiny", "--arch", arch, "--device", "tpu"])

    def test_arch_file_batch(self, tmp_path, tiny_space, capsys):
        rng = np.random.default_rng(0)
        ops = tiny_space.sample_indices(5, rng)
        path = tmp_path / "archs.txt"
        lines = ["# header comment", ""]
        lines += [",".join(map(str, row)) for row in ops.tolist()]
        path.write_text("\n".join(lines) + "\n")
        assert main(["predict", "--tiny", "--arch-file", str(path),
                     "--device", "edge-nano"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["device"] == "edge-nano"
        assert payload["count"] == 5
        latency = LatencyModel(tiny_space, EDGE_NANO)
        expected = [round(v, 6)
                    for v in latency.latency_many(ops).tolist()]
        assert payload["latency_ms"] == expected
        assert len(payload["macs_m"]) == 5

    def test_arch_and_arch_file_are_exclusive(self, tmp_path, tiny_space):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["predict", "--tiny"])
        path = tmp_path / "a.txt"
        path.write_text("1,1,1,1\n")
        with pytest.raises(SystemExit, match="exactly one"):
            main(["predict", "--tiny", "--arch", "1,1,1,1",
                  "--arch-file", str(path)])

    def test_malformed_file_line_names_the_line(self, tmp_path, tiny_space):
        path = tmp_path / "bad.txt"
        path.write_text("1,1,1,1\nnot,an,arch,x\n")
        with pytest.raises(SystemExit, match="bad.txt:2"):
            main(["predict", "--tiny", "--arch-file", str(path)])


class TestSweepMetricFlag:
    def test_parser_accepts_and_rejects(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--targets", "20,24",
                                  "--metric", "energy"])
        assert args.metric == "energy"
        assert parser.parse_args(["sweep", "--targets", "20"]).metric \
            == "latency"
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--targets", "20",
                               "--metric", "watts"])


class TestQueryCommand:
    def test_stats(self, tiny_archive, capsys):
        path, _ = tiny_archive
        assert main(["query", "--archive", path, "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 25
        assert EDGE_NANO.name in stats["devices"]

    def test_top_k_with_budget(self, tiny_archive, capsys):
        path, _ = tiny_archive
        assert main(["query", "--archive", path, "--k", "4",
                     "--device", "edge-nano",
                     "--budget", "latency=3.8",
                     "--budget", "macs_m=0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] <= 4
        for entry in payload["results"]:
            # "latency" budget shorthand canonicalised to latency_ms
            assert entry["devices"][EDGE_NANO.name]["latency_ms"] <= 3.8
            assert entry["macs_m"] <= 0.3

    def test_cost_objective(self, tiny_archive, capsys):
        path, _ = tiny_archive
        assert main(["query", "--archive", path, "--k", "3",
                     "--objective", "latency", "--device", "edge-nano"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = [e["devices"][EDGE_NANO.name]["latency_ms"]
                  for e in payload["results"]]
        assert values == sorted(values)

    def test_pareto(self, tiny_archive, capsys):
        path, _ = tiny_archive
        assert main(["query", "--archive", path, "--pareto",
                     "--device", "edge-nano"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] > 0

    def test_alias_written_archive_answers_either_name(self, tmp_path,
                                                      tiny_space, capsys):
        """Device names match by the profile they resolve to, so an archive
        written with device="xavier" answers --device xavier and the full
        profile name alike (regression: --device was resolved to the
        profile name, which the archive did not hold)."""
        rng = np.random.default_rng(3)
        path = str(tmp_path / "alias.jsonl")
        ops = tiny_space.sample_indices(12, rng)
        with ArchitectureArchive(path, space=tiny_space) as arc:
            arc.add_population(
                ops, device="xavier",
                latency_ms=LatencyModel(tiny_space).latency_many(ops),
                score=rng.uniform(60, 76, size=len(ops)))
        payloads = []
        for name in ("xavier", XAVIER_MAXN.name):
            assert main(["query", "--archive", path, "--pareto",
                         "--device", name]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]
        assert payloads[0]["count"] > 0
        assert all("xavier" in entry["devices"]
                   for entry in payloads[0]["results"])

    def test_unknown_device_names_the_archive_devices(self, tiny_archive):
        path, _ = tiny_archive
        with pytest.raises(SystemExit, match=EDGE_NANO.name):
            main(["query", "--archive", path, "--device", "gpuzilla"])

    def test_pareto_needs_device(self, tiny_archive):
        path, _ = tiny_archive
        with pytest.raises(SystemExit, match="requires --device"):
            main(["query", "--archive", path, "--pareto"])

    def test_nearest(self, tiny_archive, capsys):
        path, ops = tiny_archive
        arch = ",".join(map(str, ops[0].tolist()))
        assert main(["query", "--archive", path, "--nearest", arch,
                     "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["hamming_layers"] == 0

    def test_nearest_out_of_space_arch_fails_loudly(self, tiny_archive,
                                                    tiny_space):
        """--nearest checks operator indices against the archive's space
        (pre-fix: 99s and -1s were answered at distance L)."""
        path, _ = tiny_archive
        top = tiny_space.num_operators - 1
        for op in (99, -1, top + 1):
            arch = ",".join([str(op)] * tiny_space.num_layers)
            with pytest.raises(SystemExit, match=rf"0\.\.{top}"):
                main(["query", "--archive", path, f"--nearest={arch}"])

    def test_missing_archive_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="space geometry"):
            main(["query", "--archive", str(tmp_path / "nope.jsonl"),
                  "--stats"])

    def test_malformed_budget(self, tiny_archive):
        path, _ = tiny_archive
        with pytest.raises(SystemExit, match="METRIC=VALUE"):
            main(["query", "--archive", path, "--budget", "latency24"])
        with pytest.raises(SystemExit, match="not a number"):
            main(["query", "--archive", path, "--budget", "latency=fast"])
