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
from typing import List, Tuple

import numpy as np

from ..hardware.energy import EnergyMeter, EnergyModel
from ..hardware.latency import LatencyModel
from ..search_space.space import Architecture

__all__ = ["PredictorDataset", "collect_latency_dataset",
           "collect_energy_dataset"]


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


def collect_latency_dataset(
    latency_model: LatencyModel,
    num_samples: int,
    rng: np.random.Generator,
) -> PredictorDataset:
    """Sample architectures and measure latency, as in the paper's campaign.

    Sampling, measurement, and encoding are all population-level numpy
    operations; the generator is consumed exactly as by the historical
    per-architecture loop, so seeded campaigns are bit-identical to it.
    """
    space = latency_model.space
    ops = space.sample_indices(num_samples, rng)
    targets = latency_model.measure_many(ops, rng)
    return PredictorDataset(space.encode_many(ops), targets,
                            space.indices_to_archs(ops))


def collect_energy_dataset(
    energy_model: EnergyModel,
    num_samples: int,
    rng: np.random.Generator,
) -> PredictorDataset:
    """Sample architectures and measure energy with temperature drift."""
    space = energy_model.space
    ops = space.sample_indices(num_samples, rng)
    meter = EnergyMeter(energy_model, rng)
    targets = meter.measure_many(ops)
    return PredictorDataset(space.encode_many(ops), targets,
                            space.indices_to_archs(ops))

