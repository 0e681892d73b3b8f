"""Measurement-campaign dataset for predictor training (§3.2).

The paper samples 10,000 random architectures from the space, measures each
on the Jetson AGX Xavier, and splits 80/20 into train/validation.
:func:`collect_latency_dataset` / :func:`collect_energy_dataset` reproduce
that campaign against the simulated device, returning a
:class:`PredictorDataset` of flattened one-hot encodings and measured
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..hardware.energy import EnergyMeter, EnergyModel
from ..hardware.flops import count_macs_many, count_params_many
from ..hardware.latency import LatencyModel
from ..search_space.space import Architecture, SearchSpace

__all__ = ["PredictorDataset", "campaign_shards",
           "collect_latency_dataset", "collect_energy_dataset",
           "collect_latency_dataset_sharded",
           "collect_energy_dataset_sharded"]


@dataclass
class PredictorDataset:
    """Encoded architectures with measured hardware targets.

    Attributes
    ----------
    features:
        ``(N, L·K)`` flattened one-hot encodings (the ᾱ matrices).
    targets:
        ``(N,)`` measured metric values (ms or mJ).
    archs:
        The underlying architectures, aligned with ``features`` rows.
    """

    features: np.ndarray
    targets: np.ndarray
    archs: List[Architecture]

    def __post_init__(self) -> None:
        if len(self.features) != len(self.targets) or len(self.features) != len(self.archs):
            raise ValueError("features, targets and archs must be aligned")

    def __len__(self) -> int:
        return len(self.targets)

    def split(self, train_fraction: float, rng: np.random.Generator
              ) -> Tuple["PredictorDataset", "PredictorDataset"]:
        """Shuffled train/validation split (the paper uses 80/20)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        order = rng.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        if cut == 0 or cut == len(self):
            raise ValueError("split produces an empty fold")
        first, second = order[:cut], order[cut:]

        def take(idx: np.ndarray) -> PredictorDataset:
            return PredictorDataset(
                features=self.features[idx],
                targets=self.targets[idx],
                archs=[self.archs[i] for i in idx],
            )

        return take(first), take(second)


def _record_campaign(archive, space: SearchSpace, ops: np.ndarray, *,
                     device: str, engine: str,
                     latency_ms=None, energy_mj=None,
                     measured_latency_ms=None, measured_energy_mj=None) -> None:
    """Write-through one measurement campaign into an archive.

    Recording only — the campaign itself never *reads* the archive, so a
    seeded campaign stays bit-identical whether or not one is attached.
    """
    archive.add_population(
        ops,
        device=device,
        latency_ms=latency_ms,
        energy_mj=energy_mj,
        measured_latency_ms=measured_latency_ms,
        measured_energy_mj=measured_energy_mj,
        macs_m=count_macs_many(space, ops) / 1e6,
        params_m=count_params_many(space, ops) / 1e6,
        engine=engine,
    )


def collect_latency_dataset(
    latency_model: LatencyModel,
    num_samples: int,
    rng: np.random.Generator,
    archive=None,
) -> PredictorDataset:
    """Sample architectures and measure latency, as in the paper's campaign.

    Sampling, measurement, and encoding are all population-level numpy
    operations; the generator is consumed exactly as by the historical
    per-architecture loop, so seeded campaigns are bit-identical to it.
    When an :class:`~repro.archive.store.ArchitectureArchive` is given,
    every sample is recorded with both the noiseless model latency and the
    noisy measurement.
    """
    space = latency_model.space
    ops = space.sample_indices(num_samples, rng)
    targets = latency_model.measure_many(ops, rng)
    if archive is not None:
        _record_campaign(archive, space, ops,
                         device=latency_model.device.name,
                         engine="latency-campaign",
                         latency_ms=latency_model.latency_many(ops),
                         measured_latency_ms=targets)
    return PredictorDataset(space.encode_many(ops), targets,
                            space.indices_to_archs(ops))


def collect_energy_dataset(
    energy_model: EnergyModel,
    num_samples: int,
    rng: np.random.Generator,
    archive=None,
) -> PredictorDataset:
    """Sample architectures and measure energy with temperature drift."""
    space = energy_model.space
    ops = space.sample_indices(num_samples, rng)
    meter = EnergyMeter(energy_model, rng)
    targets = meter.measure_many(ops)
    if archive is not None:
        _record_campaign(archive, space, ops,
                         device=energy_model.device.name,
                         engine="energy-campaign",
                         energy_mj=energy_model.energy_many(ops),
                         measured_energy_mj=targets)
    return PredictorDataset(space.encode_many(ops), targets,
                            space.indices_to_archs(ops))


# ----------------------------------------------------------------------
# Sharded campaigns (RunFleet fan-out)
# ----------------------------------------------------------------------

def campaign_shards(num_samples: int, shard_size: int = 2500
                    ) -> List[Tuple[int, int]]:
    """Deterministic ``(shard_index, count)`` decomposition of a campaign.

    The layout depends only on ``num_samples`` and ``shard_size`` — never
    on how many workers run the shards — which is what makes sharded
    campaigns jobs-invariant: shard ``i`` always samples and measures
    under ``default_rng([seed, i])``, whoever executes it.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    shards = []
    start = 0
    while start < num_samples:
        count = min(shard_size, num_samples - start)
        shards.append((len(shards), count))
        start += count
    return shards


def _collect_sharded(measure_shard: Callable[[int, int], Tuple[np.ndarray,
                                                               np.ndarray]],
                     shards: List[Tuple[int, int]],
                     fleet=None) -> Tuple[np.ndarray, np.ndarray]:
    """Run the shards (optionally through a RunFleet) and merge in order."""
    if fleet is not None and len(shards) > 1:
        from ..runtime.parallel import FleetTask
        tasks = [FleetTask(name=f"shard_{index:03d}",
                           fn=lambda ctx, index=index, count=count:
                           measure_shard(index, count),
                           header={"shard": index, "count": count})
                 for index, count in shards]
        pieces = fleet.run(tasks).values()  # loud on any failure
    else:
        pieces = [measure_shard(index, count) for index, count in shards]
    ops = np.concatenate([piece[0] for piece in pieces], axis=0)
    targets = np.concatenate([piece[1] for piece in pieces], axis=0)
    return ops, targets


def collect_latency_dataset_sharded(
    latency_model: LatencyModel,
    num_samples: int,
    seed: int,
    *,
    shard_size: int = 2500,
    fleet=None,
    archive=None,
) -> PredictorDataset:
    """Campaign in independent shards, optionally fanned across a RunFleet.

    Shard ``i`` samples and measures under its own spawned stream
    ``default_rng([seed, i])``, so the result is **jobs-invariant**: the
    same dataset bit-for-bit at ``fleet=None``, ``jobs=1`` or ``jobs=N``.
    (The shard layout is a different RNG consumption order than the
    single-stream :func:`collect_latency_dataset`, so the two collectors
    produce different — equally valid — campaigns for one seed.)

    Workers return only ``(ops, measurements)`` pairs; encoding and the
    archive write-through run in the parent, in shard order, so the
    archive's single-writer WAL discipline is preserved.
    """
    space = latency_model.space
    shards = campaign_shards(num_samples, shard_size)

    def measure_shard(index: int, count: int):
        rng = np.random.default_rng([seed, index])
        ops = space.sample_indices(count, rng)
        return ops, latency_model.measure_many(ops, rng)

    ops, targets = _collect_sharded(measure_shard, shards, fleet)
    if archive is not None:
        _record_campaign(archive, space, ops,
                         device=latency_model.device.name,
                         engine="latency-campaign",
                         latency_ms=latency_model.latency_many(ops),
                         measured_latency_ms=targets)
    return PredictorDataset(space.encode_many(ops), targets,
                            space.indices_to_archs(ops))


def collect_energy_dataset_sharded(
    energy_model: EnergyModel,
    num_samples: int,
    seed: int,
    *,
    shard_size: int = 2500,
    fleet=None,
    archive=None,
) -> PredictorDataset:
    """Sharded energy campaign; see :func:`collect_latency_dataset_sharded`.

    Each shard runs its own :class:`EnergyMeter`, so the thermal-drift
    trajectory restarts per shard — part of the deterministic layout, not
    an artefact of parallelism.
    """
    space = energy_model.space
    shards = campaign_shards(num_samples, shard_size)

    def measure_shard(index: int, count: int):
        rng = np.random.default_rng([seed, index])
        ops = space.sample_indices(count, rng)
        return ops, EnergyMeter(energy_model, rng).measure_many(ops)

    ops, targets = _collect_sharded(measure_shard, shards, fleet)
    if archive is not None:
        _record_campaign(archive, space, ops,
                         device=energy_model.device.name,
                         engine="energy-campaign",
                         energy_mj=energy_model.energy_many(ops),
                         measured_energy_mj=targets)
    return PredictorDataset(space.encode_many(ops), targets,
                            space.indices_to_archs(ops))
