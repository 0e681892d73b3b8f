"""Energy model and drifting energy measurements (Figure 8).

Per-inference energy is modelled as::

    E [mJ] = static_power · latency  +  e_mac · GMACs·batch  +  e_byte · GB·batch

Measurements are corrupted by white noise *and* a slow AR(1) temperature
drift — the paper notes that "the energy measurement inevitably suffers from
noises caused by the hardware temperature", and this drift is why the energy
predictor fit in Figure 8 (Left) is visibly noisier than the latency fit in
Figure 5 (Left).  :class:`EnergyMeter` carries the drift state across a
measurement campaign so consecutive measurements are correlated, as on a
heating device.
"""

from __future__ import annotations

import numpy as np

from ..search_space.space import Architecture, SearchSpace
from . import flops
from .device import DeviceProfile, XAVIER_MAXN
from .latency import LatencyModel

__all__ = ["EnergyModel", "EnergyMeter"]


class EnergyModel:
    """Analytic per-inference energy (mJ) of architectures on a device."""

    def __init__(self, space: SearchSpace, device: DeviceProfile = XAVIER_MAXN,
                 latency_model: LatencyModel | None = None) -> None:
        self.space = space
        self.device = device
        self.latency_model = latency_model or LatencyModel(space, device)

    def energy_mj(self, arch: Architecture, with_se_last: int = 0) -> float:
        """True (noise-free) energy of one batch inference, in millijoules."""
        d = self.device
        latency = self.latency_model.latency_ms(arch, with_se_last=with_se_last)
        cost = flops.arch_cost(self.space, arch, with_se_last=with_se_last)
        gmacs = d.batch_size * cost.macs / 1e9
        gbytes = d.batch_size * cost.mem_bytes / 1e9
        return (
            d.static_power_w * latency
            + d.energy_per_gmac_mj * gmacs
            + d.energy_per_gb_mj * gbytes
        )

    def energy_many(self, archs, with_se_last: int = 0) -> np.ndarray:
        """True energy of a population: ``(N, L)`` op indices → ``(N,)`` mJ.

        The cost terms are exact integer gather-sums and the latency term
        reuses :meth:`LatencyModel.latency_many`, so this agrees bit-for-bit
        with per-architecture :meth:`energy_mj` calls.
        """
        d = self.device
        ops = self.space.as_index_matrix(archs)
        latency = self.latency_model.latency_many(ops, with_se_last=with_se_last)
        cost = flops.arch_cost_many(self.space, ops, with_se_last=with_se_last)
        gmacs = d.batch_size * cost.macs / 1e9
        gbytes = d.batch_size * cost.mem_bytes / 1e9
        return (
            d.static_power_w * latency
            + d.energy_per_gmac_mj * gmacs
            + d.energy_per_gb_mj * gbytes
        )


class EnergyMeter:
    """Stateful energy measurement with AR(1) temperature drift.

    Each call to :meth:`measure` advances the drift state, so a measurement
    campaign over thousands of architectures exhibits the slow correlated
    wander of a heating device rather than i.i.d. noise.
    """

    def __init__(self, model: EnergyModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self._drift = 0.0

    def measure(self, arch: Architecture) -> float:
        """One noisy, drift-corrupted energy measurement (mJ)."""
        d = self.model.device
        self._drift = d.energy_drift_rho * self._drift + self.rng.normal(
            0.0, d.energy_drift_mj
        )
        true = self.model.energy_mj(arch)
        return max(true + self._drift + self.rng.normal(0.0, d.energy_noise_mj), 0.1)

    def measure_many(self, archs) -> np.ndarray:
        """Measure a population under one continuous drift trajectory.

        Noise is drawn as a C-order ``(N, 2)`` standard-normal block, which
        consumes the generator exactly like the scalar path's interleaved
        per-architecture (drift, white) draws; the AR(1) drift recurrence is
        evaluated with a single IIR filter whose arithmetic matches the
        scalar update ``rho·drift + eps`` term-for-term.  Seeded campaigns
        are therefore bit-identical to a loop of :meth:`measure` calls, and
        the meter's drift state advances as if each architecture had been
        measured in sequence.
        """
        # Imported here, not at module level: scipy.signal adds ~1.3 s to
        # start-up (median over 9 fresh interpreters, scipy 1.17 on a
        # 2-core VM) and only energy campaigns reach this call.
        from scipy.signal import lfilter

        d = self.model.device
        true = self.model.energy_many(archs)
        if len(true) == 0:
            return true
        z = self.rng.standard_normal((len(true), 2))
        eps = z[:, 0] * d.energy_drift_mj
        white = z[:, 1] * d.energy_noise_mj
        drift, _ = lfilter([1.0], [1.0, -d.energy_drift_rho], eps,
                           zi=[d.energy_drift_rho * self._drift])
        self._drift = float(drift[-1])
        return np.maximum(true + drift + white, 0.1)
