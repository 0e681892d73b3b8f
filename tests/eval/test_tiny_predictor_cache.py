"""``repro search --tiny`` loads its seed-keyed predictor fit from the cache.

The tiny search's predictor is :meth:`LightNAS.predictor_recipe` of its
seed.  The CLI caches that fit under ``<results>/cache``; a warm-cache run
must print exactly the JSON of the cold-cache run that fitted it, every
seed must get its own file, and no seed may load another fit — neither
``sweep --tiny``'s seed-42 campaign fit nor a file at the name a key
without the fit recipe would use.
"""

import glob
import os
import shutil

import pytest

from repro.cli import main
from repro.experiments import shared

SEEDS = (0, 1, 2, 3)
TRACKED_CACHE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                             "benchmarks", "results", "cache")


def _search(seed, capsys):
    assert main(["search", "--tiny", "--target", "1", "--seed", str(seed),
                 "--epochs", "3"]) == 0
    return capsys.readouterr().out


@pytest.fixture
def loads(monkeypatch):
    """Base names of the cache files the run actually loaded."""
    loaded = []
    real = shared._load_predictor

    def spy(space, path):
        hit = real(space, path)
        if hit is not None:
            loaded.append(os.path.basename(path))
        return hit

    monkeypatch.setattr(shared, "_load_predictor", spy)
    return loaded


def test_cold_and_warm_cache_print_identical_json(tmp_path, monkeypatch,
                                                  capsys, loads):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    cache = tmp_path / "cache"
    cache.mkdir()
    (sweep_fit,) = glob.glob(os.path.join(
        TRACKED_CACHE, "latency_predictor_L4K7_s42_n1500_*.npz"))
    fingerprint = sweep_fit.rsplit("_", 1)[1]
    # valid predictor files a wrong key would load: the sweep's own fit,
    # and one at each name that drops the fit recipe from the key
    decoys = {os.path.basename(sweep_fit)} | {
        f"latency_predictor_L4K7_s{seed + 101}_n1500_{fingerprint}"
        for seed in SEEDS}
    for name in decoys:
        shutil.copy(sweep_fit, cache / name)

    cold = {seed: _search(seed, capsys) for seed in SEEDS}
    assert loads == []  # every seed fitted its own predictor
    fitted = set(os.listdir(cache)) - decoys
    assert len(fitted) == len(SEEDS)

    warm = {seed: _search(seed, capsys) for seed in SEEDS}
    assert sorted(loads) == sorted(fitted)
    assert warm == cold
