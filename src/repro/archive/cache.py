"""Memoizing evaluation cache backed by the architecture archive.

Evolution search re-evaluates the same genotypes constantly — across a
population, across generations, and across runs.  :class:`EvalCache`
sits between :class:`~repro.baselines.evolution.EvolutionSearch` and its
cost models: repeated
genotypes are served from memory (preloaded from an
:class:`~repro.archive.store.ArchitectureArchive` when one is given)
instead of re-running the MLP predictor or the accuracy oracle, and newly
computed values are flushed back so the *next* run starts warm.

Correctness contract — **bit-identical results**: a cache hit must return
exactly the value the compute path would have produced, so a seeded search
rerun against a populated archive yields the same
:class:`~repro.core.result.SearchResult` as a cold run.  Three properties
make that hold:

* the predictor and oracle are pure functions of the genotype (no noisy
  measurement goes through the cache),
* ``predict_population`` on a row subset is bit-identical to the same rows
  inside a larger batch (regression-tested in
  ``tests/archive/test_cache.py``), so computing only the missing rows of a
  batch is safe,
* cached values are keyed by a **fingerprint of the model that produced
  them** (predictor weights / oracle parameters), so an archive populated
  under different weights is ignored rather than trusted.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..search_space.space import Architecture
from .store import ArchitectureArchive

__all__ = ["EvalCache", "model_fingerprint", "oracle_fingerprint"]


def model_fingerprint(predictor) -> str:
    """Short stable hash of a predictor's parameters.

    Covers the weights (``state_dict`` arrays for the MLP, the cost table
    for :class:`~repro.predictor.analytic.AnalyticCostPredictor`) plus the
    class name, so cached predictions are only reused under the exact model
    that produced them.
    """
    digest = hashlib.md5(type(predictor).__name__.encode())
    if hasattr(predictor, "state_dict"):
        state = predictor.state_dict()
        for name in sorted(state):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(
                np.asarray(state[name], dtype=np.float64)).tobytes())
    elif hasattr(predictor, "table"):
        digest.update(np.ascontiguousarray(
            np.asarray(predictor.table, dtype=np.float64)).tobytes())
        digest.update(repr(getattr(predictor, "fixed", None)).encode())
        digest.update(repr(getattr(predictor, "metric", None)).encode())
    else:
        digest.update(repr(predictor).encode())
    return digest.hexdigest()[:12]


def oracle_fingerprint(oracle) -> str:
    """Short stable hash of an accuracy oracle's defining parameters."""
    space = oracle.space
    parts = (type(oracle).__name__, space.num_layers, space.num_operators,
             repr(space.macro), oracle.width_mult, oracle.resolution,
             oracle.seed)
    return hashlib.md5(repr(parts).encode()).hexdigest()[:12]


class EvalCache:
    """Genotype-keyed memoization of predictor and oracle evaluations.

    Parameters
    ----------
    predictor:
        The engine's metric predictor (optional: a cache can memoize only
        fitness).
    oracle:
        The engine's accuracy oracle (optional).
    archive:
        When given, matching cached values (same model fingerprints) are
        preloaded on construction and new values are written back by
        :meth:`flush`.
    """

    def __init__(self, predictor=None, oracle=None, *,
                 archive: Optional[ArchitectureArchive] = None) -> None:
        if predictor is None and oracle is None:
            raise ValueError("EvalCache needs a predictor and/or an oracle")
        self.predictor = predictor
        self.oracle = oracle
        self.archive = archive
        self.space = predictor.space if predictor is not None else oracle.space
        self._pred_fp = (model_fingerprint(predictor)
                         if predictor is not None else "")
        self._oracle_fp = (oracle_fingerprint(oracle)
                           if oracle is not None else "")
        self._pred: Dict[Tuple[int, ...], float] = {}
        self._fit: Dict[Tuple[Tuple[int, ...], int], float] = {}
        self._dirty: Set[Tuple[int, ...]] = set()
        self.predict_hits = self.predict_misses = 0
        self.fitness_hits = self.fitness_misses = 0
        if archive is not None:
            self._preload(archive)

    # ------------------------------------------------------------------
    def _preload(self, archive: ArchitectureArchive) -> None:
        pred_key = f"pred:{self._pred_fp}"
        fit_prefix = "top1_e"
        fit_suffix = f":{self._oracle_fp}"
        for record in archive.records():
            ops = record.op_indices
            for name, value in record.extras.items():
                if self._pred_fp and name == pred_key:
                    self._pred[ops] = value
                elif (self._oracle_fp and name.startswith(fit_prefix)
                        and name.endswith(fit_suffix)):
                    epochs = name[len(fit_prefix):-len(fit_suffix)]
                    if epochs.isdigit():
                        self._fit[(ops, int(epochs))] = value

    # ------------------------------------------------------------------
    # Predictor path
    # ------------------------------------------------------------------
    def predict_population(self, archs) -> np.ndarray:
        """Memoized :meth:`MLPPredictor.predict_population`.

        Rows already known (from this run or the preloaded archive) are
        served from memory; only the missing rows go through one batched
        predictor forward.
        """
        if self.predictor is None:
            raise ValueError("this cache has no predictor")
        ops = self.space.as_index_matrix(archs)
        out = np.empty(len(ops), dtype=np.float64)
        miss_rows = []
        for i, row in enumerate(map(tuple, ops.tolist())):
            value = self._pred.get(row)
            if value is None:
                miss_rows.append(i)
            else:
                out[i] = value
        self.predict_hits += len(ops) - len(miss_rows)
        self.predict_misses += len(miss_rows)
        if miss_rows:
            miss = np.asarray(miss_rows, dtype=np.int64)
            values = self.predictor.predict_population(ops[miss])
            out[miss] = values
            for i, value in zip(miss_rows, values.tolist()):
                row = tuple(ops[i].tolist())
                self._pred[row] = value
                self._dirty.add(row)
        return out

    def predict_arch(self, arch: Architecture) -> float:
        """Memoized scalar prediction (same values as the batched path)."""
        return float(self.predict_population(
            np.asarray([arch.op_indices], dtype=np.int64))[0])

    # ------------------------------------------------------------------
    # Oracle path
    # ------------------------------------------------------------------
    def fitness(self, arch: Architecture, epochs: int = 360) -> float:
        """Memoized ``oracle.evaluate(arch, epochs=epochs).top1``."""
        if self.oracle is None:
            raise ValueError("this cache has no oracle")
        key = (arch.op_indices, int(epochs))
        value = self._fit.get(key)
        if value is not None:
            self.fitness_hits += 1
            return value
        self.fitness_misses += 1
        value = self.oracle.evaluate(arch, epochs=epochs).top1
        self._fit[key] = value
        self._dirty.add(arch.op_indices)
        return value

    # ------------------------------------------------------------------
    # Archive write-back and telemetry
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.predict_hits + self.fitness_hits

    @property
    def misses(self) -> int:
        return self.predict_misses + self.fitness_misses

    def counters(self) -> dict:
        """Hit/miss counters in the shape the run journal emits."""
        total = self.hits + self.misses
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_rate": round(self.hits / total, 6) if total else 0.0,
            "predict_hits": self.predict_hits,
            "predict_misses": self.predict_misses,
            "fitness_hits": self.fitness_hits,
            "fitness_misses": self.fitness_misses,
        }

    def flush(self, engine: str = "", seed: Optional[int] = None,
              config_fingerprint: str = "") -> int:
        """Write values computed this run back to the archive.

        One record per newly evaluated genotype, carrying the
        fingerprint-tagged extras plus provenance; returns the number of
        records written (0 when no archive is attached).
        """
        if self.archive is None or not self._dirty:
            self._dirty.clear()
            return 0
        written = 0
        for ops in sorted(self._dirty):
            extras: Dict[str, float] = {}
            score = None
            pred = self._pred.get(ops)
            if pred is not None and self._pred_fp:
                extras[f"pred:{self._pred_fp}"] = pred
            for (fit_ops, epochs), value in self._fit.items():
                if fit_ops == ops:
                    extras[f"top1_e{epochs}:{self._oracle_fp}"] = value
                    score = value if score is None else max(score, value)
            if not extras:
                continue
            self.archive.add(ops, extras=extras, score=score,
                             engine=engine, seed=seed,
                             config_fingerprint=config_fingerprint,
                             flush=False)
            written += 1
        self.archive.flush()
        self._dirty.clear()
        return written
