"""`repro.baselines` — the methods LightNAS is compared against.

Gradient-based: DARTS, SNAS, FBNet (fixed-λ latency penalty, the Figure-3
sweep), ProxylessNAS (two-path binary gates).  Search-based: OFA-style
constrained regularized evolution, MnasNet-style REINFORCE, random search.
Plus the MobileNetV2 width/resolution scaling baseline of Figure 9.
"""

from .evolution import EvolutionConfig, EvolutionSearch
from .gradient import (
    DARTSSearch,
    FBNetSearch,
    GradientNAS,
    GradientNASConfig,
    ProxylessSearch,
    SNASSearch,
)
from .random_search import RandomSearch, RandomSearchConfig
from .rl_search import RLSearch, RLSearchConfig
from .scaling import ScaledModel, ScalingBaseline

__all__ = [
    "GradientNASConfig",
    "GradientNAS",
    "DARTSSearch",
    "SNASSearch",
    "FBNetSearch",
    "ProxylessSearch",
    "EvolutionConfig",
    "EvolutionSearch",
    "RLSearchConfig",
    "RLSearch",
    "RandomSearchConfig",
    "RandomSearch",
    "ScalingBaseline",
    "ScaledModel",
]
