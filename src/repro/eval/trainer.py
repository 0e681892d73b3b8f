"""Stand-alone architecture training on the proxy task (§4.1 protocol).

Retrains a derived architecture from scratch, following the paper's
evaluation recipe at proxy scale: SGD with momentum 0.9, weight decay 4e-5,
cosine learning-rate decay with linear warmup over the first ~1.4 % of
training (the paper warms 5 of 360 epochs), and Dropout 0.2 before the
classifier.  Used by the integration tests and the supernet-equality
ablation; the ImageNet-scale numbers of Table 2 come from the accuracy
oracle instead (see :mod:`repro.eval.imagenet`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .. import nn
from ..nn import functional as F
from ..proxy.dataset import Batch, SyntheticTask
from ..proxy.supernet import build_standalone
from ..search_space.space import Architecture, SearchSpace

__all__ = ["TrainReport", "train_standalone", "accuracy"]

#: peak SGD learning rate of the cosine schedule
BASE_LR = 0.1
#: epochs of linear warm-up from ``BASE_LR / 5``
WARMUP_EPOCHS = 2
WEIGHT_DECAY = 4e-5


@dataclass
class TrainReport:
    """Outcome of one stand-alone training run."""

    train_losses: List[float]
    valid_accuracy: float
    train_accuracy: float
    epochs: int

    def summary(self) -> Dict[str, float]:
        return {
            "train_accuracy": self.train_accuracy,
            "valid_accuracy": self.valid_accuracy,
            "final_loss": self.train_losses[-1] if self.train_losses else float("nan"),
            "epochs": self.epochs,
        }


def accuracy(model: nn.Module, batch: Batch) -> float:
    """Top-1 accuracy of a model on one batch (eval mode).

    Runs under ``nn.no_grad()``, so with the tape-free ops engine the
    forward allocates no backward closures and keeps no intermediates.
    """
    model.eval()
    with nn.no_grad():
        logits = model(nn.Tensor(batch.images))
    model.train(True)
    predictions = logits.data.argmax(axis=1)
    return float((predictions == batch.labels).mean())


def train_standalone(
    space: SearchSpace,
    arch: Architecture,
    task: SyntheticTask,
    epochs: int = 20,
    batch_size: int = 32,
    seed: int = 0,
) -> TrainReport:
    """Train ``arch`` from scratch on ``task`` and report accuracies.

    The run is float64 whatever the caller's default dtype, so seeded
    runs stay bit-identical to the historical engine.
    """
    rng = np.random.default_rng(seed)
    with nn.dtype_scope("float64"):
        model = build_standalone(space, arch, rng)
        optimizer = nn.SGD(model.parameters(), lr=BASE_LR, momentum=0.9,
                           weight_decay=WEIGHT_DECAY)
        schedule = nn.CosineSchedule(
            BASE_LR, total_steps=epochs,
            warmup_steps=min(WARMUP_EPOCHS, epochs - 1),
            warmup_start_lr=BASE_LR / 5.0,
        )
        num_classes = space.macro.num_classes
        losses: List[float] = []
        for epoch in range(epochs):
            schedule.apply(optimizer, epoch)
            epoch_loss, batches = 0.0, 0
            for batch in task.batches(task.train, batch_size):
                targets = F.one_hot(batch.labels, num_classes)
                optimizer.zero_grad()
                logits = model(nn.Tensor(batch.images))
                loss = F.cross_entropy(logits, targets=nn.Tensor(targets))
                loss.backward()
                optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        return TrainReport(
            train_losses=losses,
            valid_accuracy=accuracy(model, task.valid),
            train_accuracy=accuracy(model, task.train),
            epochs=epochs,
        )
