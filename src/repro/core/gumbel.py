"""Single-path Gumbel sampling of architectures (§3.3).

:class:`GumbelSampler` owns the temperature schedule and produces, from the
architecture parameters ``α``, the chain of Eq. (6)–(9)::

    P  = row-softmax(α)                    (operator probabilities)
    P̂  = softmax((P + G) / τ),  G~Gumbel   (continuous relaxation, Eq. 7)
    P̄  = one-hot(argmax P̂) with STE        (hard single-path gates, Eq. 9)

The paper initialises τ = 5 and "gradually decays [it] to zero"; we anneal
exponentially to a small floor (exact zero is singular in Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..search_space.space import Architecture

__all__ = ["TemperatureSchedule", "GumbelSampler", "alpha_optimizer",
           "alpha_schedule"]

#: Adam on the architecture parameters α, as in §4.1: lr 1e-3 and weight
#: decay 1e-3, the learning rate cosine-annealed to a tenth of itself
ALPHA_LR = 1e-3
ALPHA_WEIGHT_DECAY = 1e-3


def alpha_optimizer(alpha: nn.Parameter) -> nn.Adam:
    """The α optimizer every differentiable search uses."""
    return nn.Adam([alpha], lr=ALPHA_LR, weight_decay=ALPHA_WEIGHT_DECAY)


def alpha_schedule(epochs: int) -> nn.CosineSchedule:
    """The α learning-rate schedule over ``epochs`` epochs."""
    return nn.CosineSchedule(ALPHA_LR, epochs, final_lr=ALPHA_LR * 0.1)


@dataclass(frozen=True)
class TemperatureSchedule:
    """Exponential temperature annealing ``τ(t) = max(τ0·decay^t, floor)``."""

    initial: float = 5.0
    floor: float = 0.1
    total_steps: int = 90

    def __post_init__(self) -> None:
        if self.initial <= 0 or self.floor <= 0:
            raise ValueError("temperatures must be positive")
        if self.floor > self.initial:
            raise ValueError("floor must not exceed the initial temperature")

    def at(self, step: int) -> float:
        """Temperature for 0-indexed ``step``."""
        if self.total_steps <= 1:
            return self.floor
        decay = (self.floor / self.initial) ** (1.0 / (self.total_steps - 1))
        return max(self.initial * decay ** max(step, 0), self.floor)


class GumbelSampler:
    """Samples hard single-path gate matrices from architecture parameters."""

    def __init__(self, schedule: TemperatureSchedule, rng: np.random.Generator) -> None:
        self.schedule = schedule
        self.rng = rng

    def draw_noise(self, shape) -> np.ndarray:
        """Advance the sampler RNG by one Gumbel draw of the given shape.

        Step plans hoist the draw out of the traced function so the noise
        becomes a per-step plan *input*; the stream order matches the
        historical in-line draw exactly (one ``rng.uniform`` call).
        """
        return F.gumbel_noise(shape, self.rng)

    def sample_gates(self, alpha: nn.Tensor, step: int,
                     deterministic: bool = False,
                     noise: Optional[np.ndarray] = None,
                     inv_tau: Optional[nn.Tensor] = None,
                     ) -> Tuple[nn.Tensor, nn.Tensor]:
        """Draw ``(P̂, P̄)`` for one search step.

        Note on Eq. (7): the paper writes ``softmax((P + G)/τ)`` with the
        *probabilities* P.  Taken literally that construction is nearly
        independent of α (P spans at most [0, 1] while Gumbel noise has
        std ≈ 1.28), so sampled paths would not concentrate on the learned
        architecture as τ anneals.  The categorical-reparameterisation
        result the paper invokes (Jang et al. 2016, its reference [19])
        perturbs *log*-probabilities — ``argmax(log P + G)`` is an exact
        categorical sample — so we use ``softmax((log P + G)/τ)``, which
        preserves the paper's stated property ``lim_{τ→0} P̂ = P``.

        ``deterministic=True`` suppresses the Gumbel noise (used by tests
        and by final-architecture extraction, where Eq. 4 is the argmax of
        ``α`` itself).  ``noise`` supplies a pre-drawn Gumbel sample (see
        :meth:`draw_noise`) and ``inv_tau`` a ``1/τ`` tensor — step plans
        use both to turn the stochastic parts of the chain into per-step
        inputs while computing bit-identical values.
        """
        log_probs = F.log_softmax(alpha, axis=-1)
        if noise is None and not deterministic:
            noise = self.draw_noise(alpha.shape)
        if inv_tau is None:
            relaxed = F.gumbel_softmax(log_probs, tau=self.schedule.at(step),
                                       noise=noise, axis=-1)
        else:
            relaxed = F.gumbel_softmax(log_probs, noise=noise, axis=-1,
                                       inv_tau=inv_tau)
        hard = F.hard_binarize_ste(relaxed, axis=-1)
        return relaxed, hard

    @staticmethod
    def derive_architecture(alpha: nn.Tensor) -> Architecture:
        """Eq. (4): the searched architecture is the per-layer argmax of α."""
        return Architecture.from_alpha(alpha.data)
