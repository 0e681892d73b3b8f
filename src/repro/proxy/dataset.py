"""Synthetic classification task — the proxy for the paper's ImageNet-100.

The paper searches on 100 randomly-sampled ImageNet categories.  Offline and
CPU-bound, we substitute a seeded synthetic dataset with the properties the
bi-level search loop actually exercises:

* each class is a smooth random template (low-frequency pattern) rendered at
  a random shift with additive noise, so the task is learnable but not
  trivial, and a higher-capacity sub-network achieves a lower validation
  loss — the signal that drives the ``L_valid`` term of Eq. (10);
* train/validation folds are disjoint draws of the same distribution,
  mirroring the weight-update/architecture-update split of bi-level NAS.

Images are NCHW float arrays normalised to roughly zero mean / unit scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["SyntheticTask", "Batch"]


@dataclass(frozen=True)
class Batch:
    """One minibatch of images and integer labels."""

    images: np.ndarray  # (N, C, H, W)
    labels: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.labels)


class SyntheticTask:
    """Seeded synthetic image-classification task.

    Parameters
    ----------
    num_classes:
        Number of categories (the paper samples 100 from ImageNet; the fast
        proxy default is 10).
    resolution:
        Square image size; must match the macro config the supernet uses.
    train_size / valid_size:
        Fold sizes.
    noise:
        Additive Gaussian noise amplitude; higher is harder.
    seed:
        Everything (templates, shifts, noise, batch order) derives from it.
    """

    def __init__(
        self,
        num_classes: int = 10,
        resolution: int = 16,
        train_size: int = 512,
        valid_size: int = 256,
        noise: float = 0.35,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        if resolution < 4:
            raise ValueError("resolution must be at least 4")
        self.num_classes = num_classes
        self.resolution = resolution
        self.channels = 3  # like RGB
        self.noise = noise
        rng = np.random.default_rng(seed)
        self._templates = self._make_templates(rng)
        self.train = self._render_fold(train_size, rng)
        self.valid = self._render_fold(valid_size, rng)
        self._batch_rng = np.random.default_rng(seed + 1)

    # ------------------------------------------------------------------
    def _make_templates(self, rng: np.random.Generator) -> np.ndarray:
        """Smooth per-class templates: low-frequency random Fourier fields."""
        r = self.resolution
        yy, xx = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
        templates = np.zeros((self.num_classes, self.channels, r, r))
        for c in range(self.num_classes):
            for ch in range(self.channels):
                field = np.zeros((r, r))
                for _ in range(4):
                    fy, fx = rng.uniform(0.5, 2.5, size=2)
                    phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
                    amp = rng.uniform(0.4, 1.0)
                    field += amp * np.sin(2 * np.pi * fy * yy / r + phase_y) * np.cos(
                        2 * np.pi * fx * xx / r + phase_x
                    )
                templates[c, ch] = field / np.abs(field).max()
        return templates

    def _render_fold(self, size: int, rng: np.random.Generator) -> Batch:
        labels = rng.integers(self.num_classes, size=size)
        images = np.empty((size, self.channels, self.resolution, self.resolution))
        for i, label in enumerate(labels):
            shift_y, shift_x = rng.integers(-2, 3, size=2)
            img = np.roll(self._templates[label], (shift_y, shift_x), axis=(1, 2))
            images[i] = img + rng.normal(0.0, self.noise, size=img.shape)
        return Batch(images=images, labels=labels.astype(np.int64))

    # ------------------------------------------------------------------
    def batches(self, fold: Batch, batch_size: int) -> Iterator[Batch]:
        """Iterate shuffled minibatches over a fold."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        order = self._batch_rng.permutation(len(fold))
        for start in range(0, len(fold), batch_size):
            idx = order[start : start + batch_size]
            yield Batch(images=fold.images[idx], labels=fold.labels[idx])

    def sample_batch(self, fold: Batch, batch_size: int) -> Batch:
        """Draw one random minibatch from a fold."""
        idx = self._batch_rng.integers(len(fold), size=batch_size)
        return Batch(images=fold.images[idx], labels=fold.labels[idx])
