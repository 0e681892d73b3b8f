"""The MLP hardware-metric predictor of LightNAS §3.2.

A three-layer perceptron (128 → 64 → 1, ReLU) over the flattened one-hot
architecture encoding ᾱ.  The same class fits latency (ms) or energy (mJ) —
the paper stresses that the predictor "is also generalizable to other
hardware metrics"; only the training targets change.

Two forward paths are provided:

* :meth:`MLPPredictor.predict` — a raw-numpy fast path for scoring millions
  of candidates (evolution/RL baselines, benchmark sweeps);
* :meth:`MLPPredictor.predict_tensor` — an autodiff path through
  :mod:`repro.nn`, which is what lets the search engine backpropagate
  ``∂LAT(α)/∂ᾱ`` through the predictor weights (the "one-time backward
  propagation" of Eq. 12).

Targets are z-score normalised internally; predictions are returned in the
original units.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import nn
from ..nn import functional as F
from ..search_space.space import Architecture, SearchSpace
from .dataset import PredictorDataset

__all__ = ["MLPPredictor"]

#: rows per encode + forward in :meth:`MLPPredictor.predict_population`
CHUNK_ROWS = 65536


class MLPPredictor:
    """3-layer MLP predictor over flattened one-hot encodings.

    Parameters
    ----------
    space:
        Search space (fixes the input width to ``L·K``).
    hidden:
        Hidden-layer widths; the paper uses ``(128, 64)``.
    seed:
        Seed for weight initialisation and minibatch shuffling.
    """

    def __init__(self, space: SearchSpace, hidden: tuple = (128, 64), seed: int = 0) -> None:
        self.space = space
        self.input_dim = space.num_layers * space.num_operators
        rng = np.random.default_rng(seed)
        self._shuffle_rng = np.random.default_rng(seed + 1)
        dims = [self.input_dim, *hidden, 1]
        self.layers: List[nn.Linear] = [
            nn.Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]
        self._model = nn.Sequential()  # container so parameters() sees all layers
        for i, layer in enumerate(self.layers):
            self._model._modules[str(i)] = layer
            self._model.layers.append(layer)
        self.target_mean = 0.0
        self.target_std = 1.0
        self.fitted = False
        # Transposed-weight cache for the numpy fast path; rebuilt after
        # fit()/load_state_dict(), cleared while training mutates weights.
        self._fast_weights = None

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def predict_tensor(self, features: nn.Tensor) -> nn.Tensor:
        """Differentiable forward: ``(N, L·K)`` → ``(N,)`` in target units."""
        h = features
        for layer in self.layers[:-1]:
            h = nn.ops.relu(layer(h))
        out = self.layers[-1](h)
        out = nn.ops.reshape(out, (features.shape[0],))
        return out * self.target_std + self.target_mean

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Fast numpy forward (no tape) for batch scoring.

        This is the inner loop of every population consumer (evolution/RL
        feasibility filtering, benchmark sweeps), so it avoids per-call
        work: already-2-D float64 inputs are used as-is (no ``atleast_2d``
        + copy), and the transposed weight matrices are cached contiguously
        once training ends instead of being re-derived per call.
        """
        if not (isinstance(features, np.ndarray) and features.ndim == 2
                and features.dtype == np.float64):
            features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        weights = self._fast_weights
        if weights is None:
            weights = [(layer.weight.data.T, layer.bias.data)
                       for layer in self.layers]
        h = features
        for w_t, b in weights[:-1]:
            h = np.maximum(h @ w_t + b, 0.0)
        w_t, b = weights[-1]
        out = h @ w_t + b
        return out[:, 0] * self.target_std + self.target_mean

    def _refresh_fast_weights(self) -> None:
        self._fast_weights = [
            (np.ascontiguousarray(layer.weight.data.T), layer.bias.data.copy())
            for layer in self.layers
        ]

    def predict_arch(self, arch: Architecture) -> float:
        """Predict the metric of a single architecture."""
        feat = arch.one_hot(self.space.num_operators).reshape(1, -1)
        return float(self.predict(feat)[0])

    def predict_population(self, archs) -> np.ndarray:
        """Predict a population: ``(N, L)`` op indices (or a sequence of
        architectures) → ``(N,)`` metric values, one encode + one forward
        per chunk of :data:`CHUNK_ROWS` rows (chunking bounds the transient
        one-hot matrix's memory)."""
        ops = self.space.as_index_matrix(archs)
        if len(ops) <= CHUNK_ROWS:
            return self.predict(self.space.encode_many(ops))
        return np.concatenate([
            self.predict(self.space.encode_many(ops[start:start + CHUNK_ROWS]))
            for start in range(0, len(ops), CHUNK_ROWS)
        ])

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        train: PredictorDataset,
        epochs: int = 150,
        batch_size: int = 256,
        lr: float = 1e-3,
        weight_decay: float = 1e-5,
    ) -> None:
        """Fit with Adam on mean-squared error over normalised targets.

        A cosine schedule anneals the learning rate to zero over
        ``epochs``, which is what lets the predictor reach the
        measurement-noise floor on large campaigns (Figure 5 Left).
        """
        if len(train) < 2:
            raise ValueError("need at least 2 training samples")
        self._fast_weights = None  # weights are about to change under Adam
        self._model.set_trainable(True)
        self.target_mean = float(train.targets.mean())
        self.target_std = float(train.targets.std()) or 1.0

        x = np.asarray(train.features, dtype=np.float64)
        y = (np.asarray(train.targets, dtype=np.float64) - self.target_mean) / self.target_std
        optimizer = nn.Adam(self._model.parameters(), lr=lr, weight_decay=weight_decay)
        schedule = nn.CosineSchedule(lr, epochs)

        for epoch in range(epochs):
            schedule.apply(optimizer, epoch)
            order = self._shuffle_rng.permutation(len(y))
            for start in range(0, len(y), batch_size):
                idx = order[start : start + batch_size]
                xb, yb = nn.Tensor(x[idx]), y[idx]
                pred = self._forward_normalised(xb)
                loss = F.mse_loss(pred, nn.Tensor(yb))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        self.fitted = True
        # fitted weights enter every search step as constants: the tape
        # computes, stores and zeroes no gradient for them
        self._model.set_trainable(False)
        self._refresh_fast_weights()

    def _forward_normalised(self, features: nn.Tensor) -> nn.Tensor:
        h = features
        for layer in self.layers[:-1]:
            h = nn.ops.relu(layer(h))
        out = self.layers[-1](h)
        return nn.ops.reshape(out, (features.shape[0],))

    # ------------------------------------------------------------------
    def rmse(self, dataset: PredictorDataset) -> float:
        """Root-mean-square error on a dataset, in target units."""
        pred = self.predict(dataset.features)
        return float(np.sqrt(np.mean((pred - dataset.targets) ** 2)))

    def state_dict(self) -> dict:
        state = self._model.state_dict()
        state["__target_mean"] = np.array(self.target_mean)
        state["__target_std"] = np.array(self.target_std)
        return state

    def load_state_dict(self, state: dict) -> None:
        self.target_mean = float(state.pop("__target_mean"))
        self.target_std = float(state.pop("__target_std"))
        self._model.load_state_dict(state)
        self.fitted = True
        self._model.set_trainable(False)  # frozen, like a fitted one
        self._refresh_fast_weights()

