"""The learned constraint multiplier λ (§3.4, Eq. 11).

Previous hardware-aware differentiable NAS treats the accuracy/latency
trade-off coefficient λ as a hand-tuned constant, requiring ≈10 search runs
per target (§2.2).  LightNAS instead treats λ as a *parameter optimised by
gradient ascent*::

    λ* = λ + η_λ · ∂L/∂λ = λ + η_λ · (LAT(α)/T − 1)

which is the dual ascent of a Lagrangian: λ grows while the constraint is
violated (LAT > T), strengthening the latency penalty on α, and shrinks —
through zero into negative values — while LAT < T, which *rewards* latency
until the constraint is met with equality.  The fixed point satisfies
``LAT(α) = T``.

:class:`LagrangeMultiplier` wraps the scalar parameter and its ascent
update, and records the λ trajectory for the Figure-7/8 convergence plots.
"""

from __future__ import annotations

from typing import List

from .. import nn

__all__ = ["LagrangeMultiplier"]


class LagrangeMultiplier:
    """Scalar λ with gradient-ascent updates.

    Parameters
    ----------
    lr:
        Ascent learning rate η_λ (the paper fixes 5e-4).  λ starts at 0,
        as in the paper.
    clamp_min:
        Optional lower bound.  The default (``None``) allows λ < 0, which
        is required for the constraint to *pull up* architectures whose
        latency is below target — this is what "strictly satisfying
        LAT(α)=T" relies on.
    """

    def __init__(self, lr: float = 5e-4,
                 clamp_min: float | None = None) -> None:
        if lr <= 0:
            raise ValueError("λ learning rate must be positive")
        self.param = nn.Parameter([0.0], name="lambda")
        self._optimizer = nn.GradientAscent([self.param], lr=lr, floor=clamp_min)
        self.history: List[float] = []

    @property
    def value(self) -> float:
        return float(self.param.data[0])

    def as_tensor(self) -> nn.Tensor:
        """The λ parameter, for use inside the differentiable objective."""
        return self.param

    def ascend(self) -> float:
        """Apply one ascent step from the gradient accumulated in ``param``.

        The gradient arrives via ``loss.backward()`` on the Eq. (10)
        objective, where ``∂L/∂λ = LAT(α)/T − 1`` falls out automatically.
        Returns the new λ and appends it to :attr:`history`.
        """
        self._optimizer.step()
        self.param.zero_grad()
        self.history.append(self.value)
        return self.value
