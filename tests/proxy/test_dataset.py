"""Tests of the synthetic proxy classification task."""

import numpy as np
import pytest

from repro.proxy.dataset import SyntheticTask


class TestConstruction:
    def test_fold_sizes(self):
        task = SyntheticTask(num_classes=4, resolution=8, train_size=40,
                             valid_size=20, seed=0)
        assert len(task.train) == 40
        assert len(task.valid) == 20

    def test_image_shapes(self):
        task = SyntheticTask(num_classes=3, resolution=12, train_size=10,
                             valid_size=5, seed=0)
        assert task.train.images.shape == (10, 3, 12, 12)
        assert task.train.labels.shape == (10,)

    def test_labels_in_range(self):
        task = SyntheticTask(num_classes=5, resolution=8, train_size=50,
                             valid_size=10, seed=1)
        assert task.train.labels.min() >= 0
        assert task.train.labels.max() < 5

    def test_deterministic_by_seed(self):
        a = SyntheticTask(num_classes=3, resolution=8, train_size=10,
                          valid_size=5, seed=7)
        b = SyntheticTask(num_classes=3, resolution=8, train_size=10,
                          valid_size=5, seed=7)
        assert np.array_equal(a.train.images, b.train.images)
        assert np.array_equal(a.train.labels, b.train.labels)

    def test_different_seeds_differ(self):
        a = SyntheticTask(num_classes=3, resolution=8, train_size=10,
                          valid_size=5, seed=7)
        b = SyntheticTask(num_classes=3, resolution=8, train_size=10,
                          valid_size=5, seed=8)
        assert not np.array_equal(a.train.images, b.train.images)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTask(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticTask(resolution=2)


class TestLearnability:
    def test_classes_are_separable_by_template_correlation(self):
        """A nearest-template classifier must beat chance by a wide margin —
        otherwise the task carries no signal for L_valid."""
        task = SyntheticTask(num_classes=5, resolution=12, train_size=100,
                             valid_size=100, noise=0.3, seed=3)
        templates = task._templates.reshape(5, -1)
        images = task.valid.images.reshape(len(task.valid), -1)
        scores = images @ templates.T
        predictions = scores.argmax(axis=1)
        accuracy = (predictions == task.valid.labels).mean()
        # shift augmentation + noise keep this well below 1.0, but the
        # signal must be far above the 0.2 chance level
        assert accuracy > 0.35

    def test_noise_parameter_hurts_separability(self):
        def acc(noise):
            task = SyntheticTask(num_classes=4, resolution=12, train_size=10,
                                 valid_size=200, noise=noise, seed=5)
            templates = task._templates.reshape(4, -1)
            images = task.valid.images.reshape(len(task.valid), -1)
            return (images @ templates.T).argmax(axis=1) == task.valid.labels

        assert acc(0.1).mean() >= acc(3.0).mean()


class TestBatching:
    def test_batches_cover_fold(self):
        task = SyntheticTask(num_classes=3, resolution=8, train_size=25,
                             valid_size=5, seed=0)
        seen = 0
        for batch in task.batches(task.train, batch_size=8):
            seen += len(batch)
        assert seen == 25

    def test_batch_size_respected(self):
        task = SyntheticTask(num_classes=3, resolution=8, train_size=25,
                             valid_size=5, seed=0)
        sizes = [len(b) for b in task.batches(task.train, batch_size=8)]
        assert sizes == [8, 8, 8, 1]

    def test_sample_batch_size(self):
        task = SyntheticTask(num_classes=3, resolution=8, train_size=10,
                             valid_size=5, seed=0)
        batch = task.sample_batch(task.train, 4)
        assert len(batch) == 4

    def test_invalid_batch_size(self):
        task = SyntheticTask(num_classes=3, resolution=8, train_size=10,
                             valid_size=5, seed=0)
        with pytest.raises(ValueError):
            list(task.batches(task.train, 0))
