"""Start-up contract: shipped commands import only what they run.

scipy costs ~1.3 s and ~65 MB to import and the HTTP stack (``http.server``,
``email``, ``ssl``) tens of milliseconds, yet searches, sweeps, stability
campaigns and predictions use neither.  scipy is reached only by energy
measurement campaigns (``EnergyMeter.measure_many``) and rank-correlation
reports (``kendall_tau``); the HTTP stack only by ``repro
serve``.  The archive package (``repro.archive``, ~11 ms) loads only in the
commands that open an archive: ``serve``, ``query``, ``compact`` and ``fleet
retarget``.  Each check runs in a fresh interpreter so no other test's
imports leak into ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

# Prints the heavy modules the process has loaded, as the last stdout line
# (the archive package counts: only the archive commands need it).
_REPORT = textwrap.dedent("""
    import json as _json, sys as _sys
    _heavy = sorted(m for m in _sys.modules
                    if m == "scipy" or m.startswith("scipy.")
                    or m in ("http.server", "repro.archive"))
    _sys.__stdout__.write(_json.dumps(_heavy) + "\\n")
""")


def _run(code: str, timeout: float = 300.0) -> list:
    """Run ``code`` then ``_REPORT`` in a fresh interpreter; return the
    heavy modules it had loaded at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_cli(argv) -> list:
    return _run(f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({list(argv)!r}) == 0
    """)


def test_import_cli_loads_no_scipy_and_no_http_server():
    assert _run("import repro.cli") == []


FULL_ARCH = ",".join(["1"] * 21)

COMMANDS = {
    "search": ["search", "--target", "24", "--epochs", "1"],
    "search-tiny": ["search", "--tiny", "--target", "1", "--epochs", "3"],
    "stability": ["stability", "--targets", "20,28", "--seeds", "0,1",
                  "--epochs", "1", "--jobs", "1"],
    "sweep": ["sweep", "--targets", "20,28", "--epochs", "1", "--jobs", "1"],
    "predict": ["predict", "--arch", FULL_ARCH],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_no_scipy_and_no_http_server(name):
    # nor the archive package: none of these commands opens an archive
    assert _run_cli(COMMANDS[name]) == []


def test_serve_loads_no_scipy():
    # serve needs the HTTP stack, but not scipy: run it on a thread, answer
    # one /predict batch, shut it down, then inspect the process's modules
    loaded = _run("""
        import contextlib, io, json, re, threading, time, urllib.request
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            server = threading.Thread(
                target=main, args=(["serve", "--tiny", "--port", "0"],))
            server.start()
            deadline = time.monotonic() + 120
            while "serving on" not in out.getvalue():
                assert server.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
        base = re.search(r"http://[\\d.]+:\\d+", out.getvalue()).group(0)

        def post(endpoint, payload):
            request = urllib.request.Request(
                base + endpoint, json.dumps(payload).encode(),
                {"Content-Type": "application/json"})
            return json.loads(urllib.request.urlopen(request, timeout=30).read())

        assert post("/predict", {"archs": [[1, 1, 1, 1]]})["count"] == 1
        post("/shutdown", {})
        server.join(timeout=30)
        assert not server.is_alive()
    """)
    assert loaded == ["http.server", "repro.archive"]


def test_energy_measure_many_matches_measure_loop_without_preloaded_scipy():
    loaded = _run("""
        import sys
        import numpy as np
        from repro.hardware.energy import EnergyMeter, EnergyModel
        from repro.search_space.macro import MacroConfig
        from repro.search_space.space import SearchSpace

        assert "scipy" not in sys.modules
        space = SearchSpace(MacroConfig.tiny())
        model = EnergyModel(space)
        archs = space.sample_many(64, np.random.default_rng(0))
        many = EnergyMeter(model, np.random.default_rng(7)).measure_many(archs)
        loop_meter = EnergyMeter(model, np.random.default_rng(7))
        loop = np.array([loop_meter.measure(arch) for arch in archs])
        assert many.tobytes() == loop.tobytes()
    """)
    assert "scipy" in loaded  # the lazy import did run


def test_rank_correlations_match_scipy_without_preloaded_scipy():
    loaded = _run("""
        import sys
        import numpy as np
        from repro.predictor.metrics import kendall_tau

        assert "scipy" not in sys.modules
        rng = np.random.default_rng(0)
        pred, truth = rng.normal(size=200), rng.normal(size=200)
        tau = kendall_tau(pred, truth)
        from scipy import stats
        assert tau == float(stats.kendalltau(pred, truth).statistic)
    """)
    assert "scipy" in loaded


def test_archive_service_names_resolve_lazily():
    loaded = _run("""
        import sys
        import repro.archive
        assert "http.server" not in sys.modules
        from repro.archive import ArchiveService, BatchingPredictor, make_server
        from repro.archive import service
        assert ArchiveService is service.ArchiveService
        assert BatchingPredictor is service.BatchingPredictor
        assert make_server is service.make_server
        try:
            repro.archive.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown attribute did not raise")
    """)
    assert loaded == ["http.server", "repro.archive"]
