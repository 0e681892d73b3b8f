"""`repro.core` — the paper's contribution: the LightNAS search engine.

Single-path Gumbel sampling with straight-through binarisation (§3.3), the
hardware-constrained objective of Eq. (10), gradient-ascent λ optimisation
(Eq. 11), and the orchestrating :class:`LightNAS` engine that finds an
architecture satisfying a hard metric constraint in one search run.
"""

from .gumbel import GumbelSampler, TemperatureSchedule
from .lambda_opt import LagrangeMultiplier
from .lightnas import LightNAS, LightNASConfig, run_grid
from .multi_objective import Constraint, MultiConstraintConfig, MultiConstraintLightNAS
from .objective import ConstrainedObjective
from .result import SearchResult, SearchTrajectory

__all__ = [
    "GumbelSampler",
    "TemperatureSchedule",
    "LagrangeMultiplier",
    "ConstrainedObjective",
    "LightNAS",
    "LightNASConfig",
    "run_grid",
    "Constraint",
    "MultiConstraintConfig",
    "MultiConstraintLightNAS",
    "SearchResult",
    "SearchTrajectory",
]
