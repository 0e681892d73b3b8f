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
    base_lr: float = 0.1,
    warmup_epochs: int = 2,
    weight_decay: float = 4e-5,
    dropout: float = 0.2,
    with_se_last: int = 0,
    seed: int = 0,
    compute_dtype: str = "float64",
) -> TrainReport:
    """Train ``arch`` from scratch on ``task`` and report accuracies.

    ``compute_dtype="float32"`` opts the whole run into the engine's
    reduced-precision mode (same semantics as
    ``LightNASConfig.compute_dtype``); the float64 default keeps seeded
    runs bit-identical to the historical engine.
    """
    rng = np.random.default_rng(seed)
    with nn.dtype_scope(compute_dtype):
        model = build_standalone(space, arch, rng, dropout=dropout,
                                 with_se_last=with_se_last)
        optimizer = nn.SGD(model.parameters(), lr=base_lr, momentum=0.9,
                           weight_decay=weight_decay)
        schedule = nn.CosineSchedule(
            base_lr, total_steps=epochs,
            warmup_steps=min(warmup_epochs, epochs - 1),
            warmup_start_lr=base_lr / 5.0,
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
