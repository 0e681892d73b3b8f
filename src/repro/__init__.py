"""LightNAS reproduction (Luo et al., DAC 2022).

A complete, from-scratch reproduction of "You Only Search Once: On
Lightweight Differentiable Architecture Search for Resource-Constrained
Embedded Platforms", including every substrate the paper depends on:

* :mod:`repro.nn` — numpy autodiff / NN engine (replaces PyTorch).
* :mod:`repro.search_space` — the layer-wise MobileNetV2 space (L=22, K=7).
* :mod:`repro.hardware` — simulated Nvidia Jetson AGX Xavier (latency,
  energy, FLOPs, LUT baseline).
* :mod:`repro.predictor` — the MLP latency/energy predictor (§3.2).
* :mod:`repro.proxy` — synthetic proxy task + ImageNet accuracy oracle.
* :mod:`repro.core` — LightNAS itself: single-path Gumbel search with a
  learned constraint multiplier λ (§3.3–3.4).
* :mod:`repro.baselines` — DARTS, SNAS, FBNet, ProxylessNAS, OFA-style
  evolution, MnasNet-style RL, random search, model scaling.
* :mod:`repro.eval` — stand-alone training, ImageNet-style evaluation,
  SSDLite detection transfer, search-cost accounting.
* :mod:`repro.runtime` — bit-for-bit checkpoint/resume and JSON-lines
  run telemetry for the search engines.
* :mod:`repro.archive` — persistent architecture archive, vectorized query
  engine, and the batched ``repro serve`` API.

Quickstart
----------
>>> from repro import LightNAS, LightNASConfig
>>> result = LightNAS(LightNASConfig.tiny(latency_target_ms=24.0)).search()
>>> result.architecture  # doctest: +SKIP

The top-level names below are loaded lazily (PEP 562) so that importing
``repro`` stays cheap for users who only need one substrate.
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

_LAZY_EXPORTS = {
    "LightNAS": ("repro.core.lightnas", "LightNAS"),
    "LightNASConfig": ("repro.core.lightnas", "LightNASConfig"),
    "run_grid": ("repro.core.lightnas", "run_grid"),
    "SearchResult": ("repro.core.result", "SearchResult"),
    "Architecture": ("repro.search_space.space", "Architecture"),
    "SearchSpace": ("repro.search_space.space", "SearchSpace"),
    "CheckpointError": ("repro.runtime.checkpoint", "CheckpointError"),
    "RunJournal": ("repro.runtime.telemetry", "RunJournal"),
    "ArchitectureArchive": ("repro.archive.store", "ArchitectureArchive"),
    "ArchiveError": ("repro.archive.store", "ArchiveError"),
}

__all__ = list(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


if TYPE_CHECKING:  # pragma: no cover - static typing only
    from .archive.store import ArchitectureArchive, ArchiveError
    from .core.lightnas import LightNAS, LightNASConfig, run_grid
    from .core.result import SearchResult
    from .runtime.checkpoint import CheckpointError
    from .runtime.telemetry import RunJournal
    from .search_space.space import Architecture, SearchSpace
