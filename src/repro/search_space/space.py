"""Architecture encoding and the :class:`SearchSpace` container.

An :class:`Architecture` is the discrete object the whole system revolves
around: a choice of one operator per searchable layer.  It is exactly the
sparse matrix ``ᾱ ∈ {0,1}^{L×K}`` of Eq. (4) — :meth:`Architecture.one_hot`
produces that matrix, and it is the input representation of the MLP
latency/energy predictor (§3.2).

:class:`SearchSpace` binds the operator vocabulary to a macro layout and
provides sampling, validation and batch encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .macro import LayerGeometry, MacroConfig
from .operators import LIGHTNAS_OPERATORS, SKIP_INDEX, OperatorSpec

__all__ = ["Architecture", "SearchSpace"]


@dataclass(frozen=True)
class Architecture:
    """An immutable point of the search space.

    Attributes
    ----------
    op_indices:
        Tuple of operator indices (into the space's operator list), one per
        searchable layer.
    """

    op_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.op_indices:
            raise ValueError("an architecture needs at least one layer")
        if any(i < 0 for i in self.op_indices):
            raise ValueError("operator indices must be non-negative")

    def __len__(self) -> int:
        return len(self.op_indices)

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def one_hot(self, num_operators: int) -> np.ndarray:
        """The paper's ᾱ matrix: shape ``(L, K)`` with one 1 per row."""
        if max(self.op_indices) >= num_operators:
            raise ValueError("operator index out of range for this space")
        out = np.zeros((len(self.op_indices), num_operators), dtype=np.float64)
        out[np.arange(len(self.op_indices)), self.op_indices] = 1.0
        return out

    @staticmethod
    def from_alpha(alpha: np.ndarray) -> "Architecture":
        """Eq. (4): discretise architecture parameters by per-row argmax."""
        alpha = np.asarray(alpha)
        if alpha.ndim != 2:
            raise ValueError("alpha must be an (L, K) matrix")
        return Architecture(tuple(int(i) for i in alpha.argmax(axis=1)))

    # ------------------------------------------------------------------
    # Structural summaries (used for the Figure-6 analysis)
    # ------------------------------------------------------------------
    def depth(self, skip_index: int = SKIP_INDEX) -> int:
        """Number of layers that are *not* SkipConnect."""
        return sum(1 for i in self.op_indices if i != skip_index)



class SearchSpace:
    """The LightNAS layer-wise search space: operators × macro layout.

    Parameters
    ----------
    macro:
        Stage layout; defaults to the paper's L = 22 configuration.  The
        candidate vocabulary is the paper's K = 7 list.
    """

    def __init__(self, macro: Optional[MacroConfig] = None) -> None:
        self.macro = macro or MacroConfig.lightnas()
        self.operators: List[OperatorSpec] = list(LIGHTNAS_OPERATORS)
        self._layers = self.macro.searchable_layers()

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of searchable layers (21 in the paper's full space)."""
        return len(self._layers)

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    @property
    def skip_index(self) -> int:
        for i, op in enumerate(self.operators):
            if op.is_skip:
                return i
        raise ValueError("this space has no SkipConnect operator")

    @property
    def size(self) -> float:
        """|A| = K^L (≈ 5.6×10^17 for the paper's space)."""
        return float(self.num_operators) ** self.num_layers

    def layer_geometries(self) -> List[LayerGeometry]:
        return list(self._layers)

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Architecture:
        """Uniformly sample one architecture."""
        return Architecture(
            tuple(int(i) for i in rng.integers(self.num_operators, size=self.num_layers))
        )

    def sample_indices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample a population as one ``(count, L)`` index matrix.

        One array draw consumes the generator's bitstream exactly like
        ``count`` sequential :meth:`sample` calls (``Generator.integers``
        fills C-order element-by-element), so seeded campaigns that switch
        between the scalar and batched samplers see identical architectures.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return rng.integers(self.num_operators, size=(count, self.num_layers),
                            dtype=np.int64)

    def indices_to_archs(self, ops: np.ndarray) -> List[Architecture]:
        """Materialise an ``(N, L)`` index matrix as Architecture objects."""
        ops = self.as_index_matrix(ops)
        return [Architecture(tuple(row)) for row in ops.tolist()]

    def as_index_matrix(self, archs) -> np.ndarray:
        """Normalise a population to an ``(N, L)`` int64 op-index matrix.

        Accepts an ``(N, L)`` array (validated and passed through), a
        sequence of :class:`Architecture`, or a single Architecture
        (returned as a 1-row matrix).
        """
        if isinstance(archs, Architecture):
            archs = [archs]
        if isinstance(archs, np.ndarray):
            ops = np.asarray(archs, dtype=np.int64)
            if ops.ndim != 2:
                raise ValueError(f"op-index matrix must be 2-D, got shape {ops.shape}")
        else:
            ops = np.array([a.op_indices for a in archs], dtype=np.int64)
            if ops.size == 0:
                ops = ops.reshape(0, self.num_layers)
        if ops.shape[1] != self.num_layers:
            raise ValueError(
                f"population has {ops.shape[1]} layers, space expects {self.num_layers}"
            )
        if ops.size and (ops.min() < 0 or ops.max() >= self.num_operators):
            raise ValueError("population references an unknown operator")
        return ops

    def encode_many(self, archs) -> np.ndarray:
        """Batched flattened one-hot encoding: ``(N, L·K)`` float64.

        Row ``i`` equals ``archs[i].one_hot(K).reshape(-1)`` — the predictor
        input representation — built with one scatter instead of a per-arch
        Python loop.
        """
        ops = self.as_index_matrix(archs)
        n, num_layers = ops.shape
        out = np.zeros((n, num_layers * self.num_operators), dtype=np.float64)
        flat = np.arange(num_layers) * self.num_operators + ops
        np.put_along_axis(out, flat, 1.0, axis=1)
        return out

    def sample_many(self, count: int,
                    rng: np.random.Generator) -> List[Architecture]:
        """Sample ``count`` architectures."""
        return self.indices_to_archs(self.sample_indices(count, rng))

    def validate(self, arch: Architecture) -> None:
        """Raise if ``arch`` does not type-check against this space."""
        if len(arch) != self.num_layers:
            raise ValueError(
                f"architecture has {len(arch)} layers, space expects {self.num_layers}"
            )
        if max(arch.op_indices) >= self.num_operators:
            raise ValueError("architecture references an unknown operator")

    def describe(self, arch: Architecture) -> List[str]:
        """Human-readable per-layer operator names (Figure-6 style)."""
        self.validate(arch)
        return [str(self.operators[i]) for i in arch.op_indices]

    # ------------------------------------------------------------------
    def uniform_alpha(self) -> np.ndarray:
        """The α initialisation: all-zeros ⇒ uniform operator distribution."""
        return np.zeros((self.num_layers, self.num_operators), dtype=np.float64)
