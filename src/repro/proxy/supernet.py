"""The over-parameterised supernet (Figure 4) and stand-alone networks.

:class:`SuperNet` instantiates, for every searchable layer, all ``K``
candidate operators, and supports the two execution regimes the paper
contrasts:

* :meth:`SuperNet.forward_single_path` — LightNAS §3.3: a gate matrix
  ``P̄ ∈ {0,1}^{L×K}`` (from :func:`repro.nn.functional.hard_binarize_ste`)
  selects one operator per layer; only that operator is executed, so memory
  and compute are that of a single path.  Gradients flow into the active
  operator's weights *and* into the gate entry (straight-through), which is
  what Eq. (12) differentiates.
* :meth:`SuperNet.forward_weighted` — the multi-path regime of
  DARTS/SNAS/FBNet (Eq. 1): every operator of every layer runs and outputs
  are blended by the relaxation weights.  ``last_active_paths`` records how
  many operator instances executed, which the Table-1 / memory-ablation
  benchmarks use to quantify the multi-path memory bottleneck.

:func:`build_standalone` materialises a discrete architecture as a plain
network for stand-alone retraining — by construction it is the exact
sub-network of the supernet (the "equality principle").
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from .. import nn
from ..search_space.macro import MacroConfig
from ..search_space.operators import build_operator
from ..search_space.space import Architecture, SearchSpace

__all__ = ["SuperNet", "build_standalone"]


class _Backbone(nn.Module):
    """Shared fixed parts: stem, fixed first bottleneck, head, classifier."""

    def __init__(self, macro: MacroConfig, rng: np.random.Generator,
                 dropout: float = 0.0) -> None:
        super().__init__()
        self.stem = nn.Sequential(
            nn.Conv2d(3, macro.stem_channels, 3, rng, stride=2, padding=1),
            nn.BatchNorm2d(macro.stem_channels),
            nn.ReLU6(),
        )
        # Fixed first bottleneck (MobileNetV2 convention: expansion 1).
        self.first = nn.Sequential(
            nn.Conv2d(macro.stem_channels, macro.stem_channels, 3, rng, padding=1,
                      groups=macro.stem_channels),
            nn.BatchNorm2d(macro.stem_channels),
            nn.ReLU6(),
            nn.Conv2d(macro.stem_channels, macro.first_layer_channels, 1, rng),
            nn.BatchNorm2d(macro.first_layer_channels),
        )
        last_channels = macro.stages[-1][0]
        self.head = nn.Sequential(
            nn.Conv2d(last_channels, macro.head_channels, 1, rng),
            nn.BatchNorm2d(macro.head_channels),
            nn.ReLU6(),
        )
        self.pool = nn.GlobalAvgPool()
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None
        self.classifier = nn.Linear(macro.head_channels, macro.num_classes, rng)

    def enter(self, x: nn.Tensor) -> nn.Tensor:
        return self.first(self.stem(x))

    def exit(self, x: nn.Tensor) -> nn.Tensor:
        out = self.pool(self.head(x))
        if self.dropout is not None:
            out = self.dropout(out)
        return self.classifier(out)


class SuperNet(nn.Module):
    """Weight-sharing supernet over a :class:`SearchSpace`.

    Parameters
    ----------
    space:
        Search space defining layer geometry and the operator vocabulary.
    rng:
        Weight-initialisation generator.
    dropout:
        Classifier dropout (the retraining protocol uses 0.2; search 0).
    """

    def __init__(self, space: SearchSpace, rng: np.random.Generator,
                 dropout: float = 0.0) -> None:
        super().__init__()
        self.space = space
        self.backbone = _Backbone(space.macro, rng, dropout=dropout)
        self.choice_blocks: List[nn.Sequential] = []
        for l, geom in enumerate(space.layer_geometries()):
            candidates = nn.Sequential(
                *[
                    build_operator(spec, geom.in_channels, geom.out_channels,
                                   geom.stride, rng)
                    for spec in space.operators
                ]
            )
            self._modules[f"layer{l}"] = candidates
            self.choice_blocks.append(candidates)
        #: operator executions in the most recent forward (memory proxy)
        self.last_active_paths = 0

    # ------------------------------------------------------------------
    def forward_single_path(self, x: nn.Tensor, gates: nn.Tensor) -> nn.Tensor:
        """Single-path forward under a hard one-hot gate matrix (Eq. 8–9).

        Only the argmax operator of each layer executes; multiplying by the
        (value 1.0) gate entry keeps the gate on the tape so its
        straight-through gradient reaches the architecture parameters.
        Under an open :func:`repro.nn.profiler.profile` each choice block's
        forward is recorded as ``layer <l>/<op>``.
        """
        if gates.shape != (self.space.num_layers, self.space.num_operators):
            raise ValueError(
                f"gates shape {gates.shape} does not match space "
                f"({self.space.num_layers}, {self.space.num_operators})"
            )
        active = 0
        h = self.backbone.enter(x)
        selections = np.argmax(gates.data, axis=1)
        prof = nn.profiler.active_profile()
        for l, block in enumerate(self.choice_blocks):
            k = int(selections[l])
            gate = gates[l, k]  # scalar tensor, value 1.0, on the tape
            if prof is None:
                h = block[k](h) * gate
            else:
                start = time.perf_counter()
                h = block[k](h) * gate
                prof.record_layer(f"layer {l}/{self.space.operators[k]}",
                                  time.perf_counter() - start)
            active += 1
        self.last_active_paths = active
        return self.backbone.exit(h)

    def forward_weighted(self, x: nn.Tensor, weights: nn.Tensor,
                         threshold: float = 0.0) -> nn.Tensor:
        """Multi-path forward: blend every candidate by ``weights`` (Eq. 1).

        ``threshold`` optionally skips candidates whose weight is below it
        (FBNet keeps all; ProxylessNAS samples two — callers pass masked
        weights instead).  A candidate with *zero* weight contributes
        nothing to the blend regardless of the threshold, so it is never
        executed — this is what makes masked-weight callers (which zero
        out pruned candidates and pass ``threshold=-1``) pay only for the
        paths they keep.  Records executed paths in ``last_active_paths``.
        """
        if weights.shape != (self.space.num_layers, self.space.num_operators):
            raise ValueError("weights shape does not match the space")
        active = 0
        h = self.backbone.enter(x)
        for l, block in enumerate(self.choice_blocks):
            acc = None
            for k in range(self.space.num_operators):
                if weights.data[l, k] <= threshold or weights.data[l, k] == 0.0:
                    continue
                term = block[k](h) * weights[l, k]
                acc = term if acc is None else acc + term
                active += 1
            if acc is None:
                raise ValueError(f"no active candidate at layer {l}")
            h = acc
        self.last_active_paths = active
        return self.backbone.exit(h)

    def forward_arch(self, x: nn.Tensor, arch: Architecture) -> nn.Tensor:
        """Discrete forward of one architecture (no gate gradients)."""
        self.space.validate(arch)
        h = self.backbone.enter(x)
        for block, k in zip(self.choice_blocks, arch.op_indices):
            h = block[k](h)
        self.last_active_paths = len(self.choice_blocks)
        return self.backbone.exit(h)

    # ------------------------------------------------------------------
    def path_parameters(self, arch: Architecture) -> List[nn.Parameter]:
        """Parameters of one path (backbone + chosen operators)."""
        params = list(self.backbone.parameters())
        for block, k in zip(self.choice_blocks, arch.op_indices):
            params.extend(block[k].parameters())
        return params


def build_standalone(
    space: SearchSpace,
    arch: Architecture,
    rng: np.random.Generator,
    dropout: float = 0.2,
    with_se_last: int = 0,
) -> nn.Module:
    """Materialise ``arch`` as a stand-alone trainable network.

    ``with_se_last`` adds Squeeze-and-Excitation to the last *n* searchable
    layers (Table-4 protocol: the last nine).
    """
    space.validate(arch)

    class Standalone(nn.Module):
        def __init__(self) -> None:
            super().__init__()
            self.backbone = _Backbone(space.macro, rng, dropout=dropout)
            self.blocks = nn.Sequential()
            geoms = space.layer_geometries()
            se_start = len(geoms) - with_se_last
            for i, (geom, k) in enumerate(zip(geoms, arch.op_indices)):
                op = build_operator(
                    space.operators[k], geom.in_channels, geom.out_channels,
                    geom.stride, rng, with_se=i >= se_start,
                )
                self.blocks._modules[str(i)] = op
                self.blocks.layers.append(op)

        def forward(self, x: nn.Tensor) -> nn.Tensor:
            return self.backbone.exit(self.blocks(self.backbone.enter(x)))

    return Standalone()
