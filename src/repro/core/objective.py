"""The constrained search objective of LightNAS (Eq. 10).

::

    L(w, α, λ) = L_valid(w*(α), α) + λ · (METRIC(α)/T − 1)

``METRIC`` is any hardware metric with a differentiable predictor — the
paper's headline experiments constrain latency (ms) and Figure 8 swaps in
energy (mJ) without touching the search engine.  The normalisation by the
target ``T`` makes the penalty dimensionless, so the same η_λ works across
metrics and targets.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..predictor.mlp import MLPPredictor

__all__ = ["ConstrainedObjective"]


class ConstrainedObjective:
    """Builds the Eq. (10) loss from its three ingredients.

    Parameters
    ----------
    predictor:
        A fitted differentiable metric predictor (latency or energy).
    target:
        The hard constraint T, in the predictor's units — or one T per
        slot of a stacked ``(S, L, K)`` gate tensor, whose S searches then
        share one loss evaluation (see :class:`repro.core.lightnas.
        SearchBatch`).
    """

    def __init__(self, predictor: MLPPredictor,
                 target: Union[float, Sequence[float]],
                 mu: float = 0.0) -> None:
        targets = np.asarray(target, dtype=np.float64)
        if np.any(targets <= 0):
            raise ValueError(f"constraint target must be positive, got {target}")
        if not predictor.fitted:
            raise ValueError("the metric predictor must be fitted before searching")
        if mu < 0:
            raise ValueError("the augmented-Lagrangian weight μ must be >= 0")
        self.predictor = predictor
        self.target = float(target) if targets.ndim == 0 else targets
        # 1/T per slot: the same double as the scalar path's ``1.0 / T``
        self._inv_target = 1.0 / targets
        self.mu = float(mu)

    def predicted_metric(self, gates: nn.Tensor) -> nn.Tensor:
        """Differentiable METRIC(α): predictor applied to flattened P̄.

        ``(L, K)`` gates give a scalar; stacked ``(S, L, K)`` gates give one
        metric per slot.  Each slot reaches the predictor as its own
        ``(1, L·K)`` row of an ``(S, 1, L·K)`` stack, so every slot runs the
        very matrix product a single search runs (a flat ``(S, L·K)``
        product may sum in a different order and change the last bit).
        """
        lead = gates.shape[:-2]
        flat = nn.ops.reshape(gates, lead + (1, gates.shape[-2] * gates.shape[-1]))
        metric = self.predictor.predict_tensor(flat)
        return metric if lead else metric[0]

    def loss(
        self,
        valid_loss: nn.Tensor,
        gates: nn.Tensor,
        lam: nn.Tensor,
    ) -> Tuple[nn.Tensor, Union[float, np.ndarray]]:
        """Assemble the objective; returns ``(loss, predicted_metric)``.

        Stacked gates give one loss and one metric per slot, and ``lam``
        then holds one λ per slot.

        ``lam`` stays on the tape so a single ``backward()`` yields the
        descent gradients for α/w *and* the ascent gradient
        ``∂L/∂λ = METRIC/T − 1`` for λ.
        """
        metric = self.predicted_metric(gates)
        excess = metric * self._inv_target - 1.0
        penalty = nn.ops.reshape(lam, excess.shape) * excess
        if self.mu > 0:
            # Augmented-Lagrangian damping: the quadratic term adds a
            # restoring force proportional to the constraint violation,
            # suppressing the λ/latency oscillation of pure dual ascent
            # without moving the LAT(α)=T fixed point.
            penalty = penalty + excess * excess * (0.5 * self.mu)
        value = metric.data
        return valid_loss + penalty, (float(value) if value.ndim == 0
                                      else value.copy())
