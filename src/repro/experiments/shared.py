"""Shared experiment context with disk caching.

Every benchmark needs the same substrate: the full search space, the
simulated Xavier, the accuracy oracle, and a predictor trained on the
10,000-architecture measurement campaign.  The campaign + fit takes ~40 s
of CPU, so :func:`fit_latency_predictor` (and :func:`full_context` through
it) caches the fitted predictor weights under ``benchmarks/results/cache``;
reruns load in milliseconds.

A cache file is keyed by everything that determines the fit: the space
geometry, the campaign seed and size, the fit recipe (initialisation seed,
epochs, batch size) and a fingerprint of the device.  The
campaign protocol's recipe keeps the historical file names
(``latency_predictor_s42_n10000_<device>.npz``); any other recipe, such as
``repro search --tiny``'s seed-keyed fit, adds a recipe component
(``..._s101_n1500_i0_e120_b256_<device>.npz``).  Files are written
atomically.  Delete a file (or the whole directory) to force a fresh
campaign.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hardware.device import XAVIER_MAXN, DeviceProfile
from ..hardware.energy import EnergyModel
from ..hardware.latency import LatencyModel
from ..predictor.dataset import collect_energy_dataset, collect_latency_dataset
from ..predictor.mlp import MLPPredictor
from ..proxy.accuracy_model import AccuracyOracle
from ..search_space.space import SearchSpace
from .reporting import results_dir

__all__ = ["ExperimentContext", "full_context", "fit_latency_predictor",
           "fit_energy_predictor"]

CAMPAIGN_SIZE = 10_000
CAMPAIGN_SEED = 42
FIT_EPOCHS = 400
FIT_BATCH = 512
FIT_LR = 3e-3


@dataclass
class ExperimentContext:
    """Everything a full-space experiment needs."""

    space: SearchSpace
    device: DeviceProfile
    latency_model: LatencyModel
    energy_model: EnergyModel
    oracle: AccuracyOracle
    latency_predictor: MLPPredictor
    latency_predictor_rmse: float


def _device_fingerprint(device: DeviceProfile) -> str:
    """Short hash of the device constants — changing the simulated hardware
    must invalidate cached predictors fitted against the old profile."""
    import hashlib

    return hashlib.md5(repr(device).encode()).hexdigest()[:8]


def _space_tag(space: SearchSpace) -> str:
    """Cache-name component for the space geometry.  The paper-scale space
    keeps the historical (untagged) file names so existing caches stay
    valid; any other geometry gets its own entry instead of colliding."""
    default = SearchSpace()
    if (space.num_layers, space.num_operators) == (
            default.num_layers, default.num_operators):
        return ""
    return f"L{space.num_layers}K{space.num_operators}_"


def _cache_path(name: str) -> str:
    cache = os.path.join(results_dir(), "cache")
    os.makedirs(cache, exist_ok=True)
    return os.path.join(cache, name)


def _recipe_tag(seed: int, init_seed: int, epochs: int,
                batch_size: int) -> str:
    """Cache-name component for the fit recipe.  The campaign protocol
    (init seed = campaign seed, :data:`FIT_EPOCHS`, :data:`FIT_BATCH`)
    keeps the historical untagged names; any other recipe gets its own
    entry."""
    if (init_seed, epochs, batch_size) == (seed, FIT_EPOCHS, FIT_BATCH):
        return ""
    return f"i{init_seed}_e{epochs}_b{batch_size}_"


def _save_predictor(predictor: MLPPredictor, path: str, rmse: float) -> None:
    """Write the cache file atomically: a crash or a concurrent reader never
    sees a half-written file at ``path``."""
    state = predictor.state_dict()
    state["__rmse"] = np.array(rmse)
    handle, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".npz")
    try:
        with os.fdopen(handle, "wb") as stream:
            np.savez(stream, **state)
        os.chmod(tmp, 0o644)  # mkstemp creates owner-only files
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_predictor(space: SearchSpace, path: str) -> Optional[tuple]:
    if not os.path.exists(path):
        return None
    try:
        data = dict(np.load(path))
    except Exception as exc:
        raise RuntimeError(
            f"predictor cache {path!r} is unreadable ({exc}); delete the file "
            f"to re-run the measurement campaign"
        ) from exc
    if "__rmse" not in data:
        raise RuntimeError(
            f"predictor cache {path!r} has no '__rmse' entry — it was written "
            f"by an incompatible version or is corrupt; delete the file to "
            f"re-run the measurement campaign"
        )
    rmse = float(data.pop("__rmse"))
    predictor = MLPPredictor(space)
    try:
        predictor.load_state_dict(data)
    except (KeyError, ValueError) as exc:
        raise RuntimeError(
            f"predictor cache {path!r} does not match this space/predictor "
            f"({exc}) — delete the file to re-run the measurement campaign"
        ) from exc
    return predictor, rmse


def _fit_predictor(kind: str, collect, model, space: SearchSpace, seed: int,
                   num_samples: int, use_cache: bool,
                   init_seed: Optional[int], epochs: int,
                   batch_size: int) -> tuple:
    """Run (or load) one campaign + fit; returns ``(predictor, rmse)``.

    The campaign draws ``num_samples`` measurements from
    ``default_rng(seed)``, splits them 80/20 with the same generator and
    fits an :class:`MLPPredictor` initialised from ``init_seed`` (default:
    ``seed``) with ``epochs`` epochs of Adam at :data:`FIT_LR`.  With
    ``use_cache`` the result is read from / written to ``<results>/cache``;
    without it no file is touched.
    """
    init_seed = seed if init_seed is None else init_seed
    path = None
    if use_cache:
        path = _cache_path(
            f"{kind}_predictor_{_space_tag(space)}s{seed}_n{num_samples}_"
            f"{_recipe_tag(seed, init_seed, epochs, batch_size)}"
            f"{_device_fingerprint(model.device)}.npz")
        cached = _load_predictor(space, path)
        if cached is not None:
            return cached
    rng = np.random.default_rng(seed)
    data = collect(model, num_samples, rng)
    train, valid = data.split(0.8, rng)
    predictor = MLPPredictor(space, seed=init_seed)
    predictor.fit(train, epochs=epochs, batch_size=batch_size, lr=FIT_LR,
                  weight_decay=0.0)
    rmse = predictor.rmse(valid)
    if path is not None:
        _save_predictor(predictor, path, rmse)
    return predictor, rmse


def fit_latency_predictor(
    space: SearchSpace,
    latency_model: LatencyModel,
    seed: int = CAMPAIGN_SEED,
    num_samples: int = CAMPAIGN_SIZE,
    use_cache: bool = True,
    *,
    init_seed: Optional[int] = None,
    epochs: int = FIT_EPOCHS,
    batch_size: int = FIT_BATCH,
) -> tuple:
    """Fit (or load) the campaign latency predictor; returns (pred, rmse)."""
    return _fit_predictor("latency", collect_latency_dataset, latency_model,
                          space, seed, num_samples, use_cache, init_seed,
                          epochs, batch_size)


def fit_energy_predictor(
    space: SearchSpace,
    energy_model: EnergyModel,
    num_samples: int = CAMPAIGN_SIZE,
) -> tuple:
    """Fit (or load) the energy predictor of Figure 8; returns (pred, rmse)."""
    return _fit_predictor("energy", collect_energy_dataset, energy_model,
                          space, CAMPAIGN_SEED, num_samples, True, None,
                          FIT_EPOCHS, FIT_BATCH)


def full_context() -> ExperimentContext:
    """The standard full-space experiment context (cached predictor)."""
    space = SearchSpace()
    device = XAVIER_MAXN
    latency_model = LatencyModel(space, device)
    energy_model = EnergyModel(space, device, latency_model=latency_model)
    predictor, rmse = fit_latency_predictor(space, latency_model)
    return ExperimentContext(
        space=space,
        device=device,
        latency_model=latency_model,
        energy_model=energy_model,
        oracle=AccuracyOracle(space),
        latency_predictor=predictor,
        latency_predictor_rmse=rmse,
    )
