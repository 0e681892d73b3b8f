"""Proxy-device latency transfer: monotone maps instead of fresh campaigns.

"One Proxy Device Is Enough for Hardware-Aware NAS" (PAPERS.md) observes
that latency *rank* correlation across devices is high, so retargeting a
search to a new device does not need the paper's ~10k-measurement campaign
+ MLP per device — a cheap monotone map from the proxy device's predicted
latency to the target device's measured latency, fit on ~100 calibration
pairs, preserves ranks exactly and recovers the scale.

:class:`MonotoneMap` is that map: isotonic regression (pool-adjacent-
violators) over the calibration pairs, linearly interpolated between knots,
linearly extrapolated outside them with the boundary-segment slopes, plus a
tiny *strictness* slope so the fitted function is **strictly** increasing.
Strict monotonicity is the load-bearing property: for any evaluation set,
``kendall_tau(map(proxy), truth) == kendall_tau(proxy, truth)`` — the map
can never degrade the proxy's ranking (property-tested in
``tests/fleet/test_transfer_properties.py``).

Vectorized :meth:`MonotoneMap.transfer_many` follows the PR 1 cost-table
conventions: the scalar and batch paths are bit-identical, so pipelines may
mix them freely.  Maps serialize to plain-JSON payloads (bit-exact round
trip — JSON encodes doubles via shortest-repr) so a calibrated fleet can be
saved next to an archive and reloaded by the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..hardware.device import DeviceProfile
from ..hardware.latency import LatencyModel
from ..search_space.space import SearchSpace

__all__ = ["MonotoneMap", "ProxyTransfer", "isotonic_fit"]

#: Relative strictness slope: large enough to break interpolation-plateau
#: ties in float64, small enough to be invisible in any latency estimate.
_STRICT_EPS = 1e-9


def isotonic_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted isotonic regression of ``y`` on sorted unique ``x``.

    Classic pool-adjacent-violators: merge neighbouring blocks while any
    weighted block mean decreases.  Returns the non-decreasing fitted value
    per input point.  ``x`` must be strictly increasing (callers collapse
    ties first); ``w`` are positive weights.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if not (len(x) == len(y) == len(w)):
        raise ValueError("x, y, w must be aligned")
    # blocks as (value, weight, count) stacks
    values: List[float] = []
    weights: List[float] = []
    counts: List[int] = []
    for yi, wi in zip(y.tolist(), w.tolist()):
        values.append(yi)
        weights.append(wi)
        counts.append(1)
        while len(values) > 1 and values[-2] >= values[-1]:
            wa, wb = weights[-2], weights[-1]
            merged = (values[-2] * wa + values[-1] * wb) / (wa + wb)
            values[-2:] = [merged]
            weights[-2:] = [wa + wb]
            counts[-2:] = [counts[-2] + counts[-1]]
    return np.repeat(values, counts)


@dataclass(frozen=True)
class MonotoneMap:
    """A strictly increasing piecewise-linear map, fit by isotonic PAVA.

    Attributes
    ----------
    x_knots / y_knots:
        Strictly-increasing proxy values and their (non-decreasing)
        isotonic fits; the map interpolates between them.
    strict_slope:
        Tiny positive slope added as ``strict_slope · (x − x_knots[0])`` so
        the overall map is *strictly* increasing even across isotonic
        plateaus — rank-preservation by construction.
    calibration_size:
        Number of calibration pairs the fit consumed (provenance).
    """

    x_knots: np.ndarray
    y_knots: np.ndarray
    strict_slope: float
    calibration_size: int = 0

    def __post_init__(self) -> None:
        x = np.asarray(self.x_knots, dtype=np.float64)
        y = np.asarray(self.y_knots, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or len(x) == 0:
            raise ValueError("knots must be aligned non-empty 1-D arrays")
        if len(x) > 1 and not (np.diff(x) > 0).all():
            raise ValueError("x_knots must be strictly increasing")
        if len(y) > 1 and not (np.diff(y) >= 0).all():
            raise ValueError("y_knots must be non-decreasing")
        if not np.isfinite(self.strict_slope) or self.strict_slope < 0:
            raise ValueError("strict_slope must be finite and non-negative")
        object.__setattr__(self, "x_knots", x)
        object.__setattr__(self, "y_knots", y)

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, proxy: Sequence[float], target: Sequence[float]
            ) -> "MonotoneMap":
        """Fit from calibration pairs (proxy prediction, target measurement).

        Ties in ``proxy`` are collapsed to their mean target (weighted by
        multiplicity) before PAVA, which keeps the knot abscissae strictly
        increasing.
        """
        x = np.asarray(proxy, dtype=np.float64)
        y = np.asarray(target, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("proxy and target must be aligned 1-D arrays")
        if len(x) < 2:
            raise ValueError("need at least 2 calibration pairs")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("calibration pairs must be finite")
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        ux, start = np.unique(xs, return_index=True)
        counts = np.diff(np.append(start, len(xs)))
        uy = np.add.reduceat(ys, start) / counts
        fitted = isotonic_fit(ux, uy, counts.astype(np.float64))
        x_span = float(ux[-1] - ux[0])
        y_span = float(fitted[-1] - fitted[0])
        if x_span > 0:
            slope = _STRICT_EPS * max(y_span, abs(float(fitted[-1])), 1.0) \
                / x_span
        else:
            slope = _STRICT_EPS
        return cls(x_knots=ux, y_knots=fitted, strict_slope=slope,
                   calibration_size=len(x))

    # ------------------------------------------------------------------
    def transfer_many(self, proxy_values: np.ndarray) -> np.ndarray:
        """Vectorized map: ``(N,)`` proxy values → ``(N,)`` target values.

        Interpolates between knots, extrapolates with the boundary-segment
        slopes outside them, and adds the strictness term.  The scalar
        :meth:`transfer` computes the identical expression, so batch and
        scalar calls agree bit-for-bit (property-tested).
        """
        x = np.asarray(proxy_values, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"proxy_values must be 1-D, got shape {x.shape}")
        xk, yk = self.x_knots, self.y_knots
        out = np.interp(x, xk, yk)
        if len(xk) > 1:
            left_slope = (yk[1] - yk[0]) / (xk[1] - xk[0])
            right_slope = (yk[-1] - yk[-2]) / (xk[-1] - xk[-2])
            lo = x < xk[0]
            hi = x > xk[-1]
            if lo.any():
                out[lo] = yk[0] + left_slope * (x[lo] - xk[0])
            if hi.any():
                out[hi] = yk[-1] + right_slope * (x[hi] - xk[-1])
        return out + self.strict_slope * (x - xk[0])

    def transfer(self, proxy_value: float) -> float:
        """Scalar map — bit-identical to a length-1 :meth:`transfer_many`."""
        return float(self.transfer_many(
            np.asarray([proxy_value], dtype=np.float64))[0])

    def inverse(self, target_value: float) -> float:
        """Proxy value whose transfer equals ``target_value``.

        Strict monotonicity makes the map bijective, which is what lets a
        *search* be retargeted without touching the engine: constraining
        ``map(metric) ≤ T`` on the target device is exactly constraining
        ``metric ≤ map⁻¹(T)`` on the proxy — so ``repro fleet search``
        inverts the latency budget once and runs the ordinary proxy-device
        search.  Between knots the map is linear, so the inverse is the
        piecewise-linear interpolation of the swapped knots (with the
        strictness term folded into the ordinates) and is exact.
        """
        y = float(target_value)
        xk = self.x_knots
        # strictly increasing ordinates: isotonic fit + strictness term
        yk = self.y_knots + self.strict_slope * (xk - xk[0])
        if len(xk) == 1:
            return float(xk[0] + (y - yk[0]) / self.strict_slope)
        if y < yk[0]:
            slope = (yk[1] - yk[0]) / (xk[1] - xk[0])
            return float(xk[0] + (y - yk[0]) / slope)
        if y > yk[-1]:
            slope = (yk[-1] - yk[-2]) / (xk[-1] - xk[-2])
            return float(xk[-1] + (y - yk[-1]) / slope)
        return float(np.interp(y, yk, xk))

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Plain-JSON payload (archive-style serialization)."""
        return {
            "x_knots": self.x_knots.tolist(),
            "y_knots": self.y_knots.tolist(),
            "strict_slope": self.strict_slope,
            "calibration_size": self.calibration_size,
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "MonotoneMap":
        try:
            return MonotoneMap(
                x_knots=np.asarray(payload["x_knots"], dtype=np.float64),
                y_knots=np.asarray(payload["y_knots"], dtype=np.float64),
                strict_slope=float(payload["strict_slope"]),
                calibration_size=int(payload.get("calibration_size", 0)),
            )
        except KeyError as exc:
            raise ValueError(f"monotone-map payload missing {exc}") from None


# ----------------------------------------------------------------------
# Fleet-level calibration
# ----------------------------------------------------------------------

class ProxyTransfer:
    """Per-target monotone maps over one proxy predictor.

    ``calibrate`` measures one shared calibration set (default 100
    architectures — ~100× smaller than the paper's per-device campaign) on
    every target device of the fleet and fits a :class:`MonotoneMap` per
    device from the proxy predictor's outputs; ``transfer_many`` then
    retargets any number of proxy predictions to any device with one
    interpolation pass.
    """

    def __init__(self, maps: Dict[str, MonotoneMap], *,
                 proxy_device: str = "",
                 calibration_seed: int = 0) -> None:
        self.maps = dict(maps)
        self.proxy_device = proxy_device
        self.calibration_seed = calibration_seed

    @property
    def devices(self) -> List[str]:
        return sorted(self.maps)

    def __len__(self) -> int:
        return len(self.maps)

    def map_for(self, device: str) -> MonotoneMap:
        try:
            return self.maps[device]
        except KeyError:
            raise ValueError(
                f"no transfer map calibrated for device {device!r}; "
                f"calibrated: {', '.join(self.devices) or '(none)'}"
            ) from None

    def transfer_many(self, device: str,
                      proxy_values: np.ndarray) -> np.ndarray:
        """Retarget a batch of proxy-predicted latencies to one device."""
        return self.map_for(device).transfer_many(proxy_values)

    # ------------------------------------------------------------------
    @classmethod
    def calibrate(cls, proxy_predictor, space: SearchSpace,
                  devices: Sequence[DeviceProfile], *,
                  num_samples: int = 100, seed: int = 0,
                  proxy_device: str = "") -> "ProxyTransfer":
        """Fit one map per target device from a shared calibration set.

        One set of ``num_samples`` architectures is sampled once; each
        device contributes only its own noisy measurements of that set
        (device ``i`` measures under ``default_rng([seed, 1, i])``, so a
        device's calibration stream does not depend on fleet composition
        order — recalibrating a grown fleet reuses identical measurements
        for the devices already present).

        The devices are fit one after another in this process.  A fit is
        one cost table, ~100 measurements and one isotonic regression, a
        few milliseconds, so forking workers for them costs more than it
        saves.
        """
        if num_samples < 2:
            raise ValueError("need at least 2 calibration samples")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate device names in fleet")
        ops = space.sample_indices(num_samples,
                                   np.random.default_rng([seed, 0]))
        proxy_values = proxy_predictor.predict_population(ops)
        maps = {}
        for i, device in enumerate(devices):
            measured = LatencyModel(space, device).measure_many(
                ops, np.random.default_rng([seed, 1, i]))
            maps[device.name] = MonotoneMap.fit(proxy_values, measured)
        return cls(maps, proxy_device=proxy_device, calibration_seed=seed)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "proxy_device": self.proxy_device,
            "calibration_seed": self.calibration_seed,
            "maps": {name: m.to_payload() for name, m in self.maps.items()},
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "ProxyTransfer":
        try:
            maps = {str(name): MonotoneMap.from_payload(m)
                    for name, m in payload["maps"].items()}
        except (KeyError, AttributeError):
            raise ValueError("proxy-transfer payload needs a 'maps' mapping")
        return ProxyTransfer(
            maps,
            proxy_device=str(payload.get("proxy_device", "")),
            calibration_seed=int(payload.get("calibration_seed", 0)),
        )
