"""Parametric simulated hardware families → reproducible device fleets.

The paper measures one device (a Jetson AGX Xavier); ROADMAP item 1 asks
for a *fleet* — many plausible deployment targets whose roofline constants
differ the way real hardware classes differ.  A :class:`FamilySpec` is a
distribution over :class:`~repro.hardware.device.DeviceProfile` parameters;
sampling it yields named, seeded, reproducible devices:

* ``phone-03``       — mobile SoC accelerators (batch 1, modest bandwidth),
* ``mcu-07``         — microcontrollers (100×+ slower, CPU-friendly
  depthwise, near-zero launch overhead),
* ``server-cpu-01``  — many-core server CPUs (batch 8, high bandwidth),
* ``edge-gpu-04``    — Jetson-class embedded GPUs around the proxy device.

**Parameterization.**  Each member draws an absolute ``speed`` scale (its
whole-network latency relative to the proxy device — spanning decades
across families) plus bounded *ratio* perturbations of the roofline
balance: compute vs memory traffic, per-kernel launch/isolation overhead,
fusion savings, and the dense-vs-depthwise efficiency gap.  Absolute speed
is rank-neutral; the balance ratios are what re-rank architectures across
devices.  Keeping them within small factors of the proxy's balance while
absolute constants span orders of magnitude encodes the empirical premise
of "One Proxy Device Is Enough" (PAPERS.md): real devices disagree wildly
on *how fast* but only mildly on *which architecture is faster*, which is
exactly what makes a monotone proxy→target map sufficient.  The raw
:class:`DeviceProfile` constants (MACs/ms, bytes/ms, ms overheads) are
derived from the draws, so generated profiles plug into every existing
latency/energy model unchanged.

Member ``i`` of a family is generated from a generator seeded by
``(seed, i, family)``, so ``phone-03`` denotes the *same* device no matter
how many fleet members are instantiated, in which order, or by which
process — archives, services and calibration files can refer to fleet
devices by name alone.  A non-default seed is spelled into the name
(``phone-03@s7``), keeping names content-addressed.

:func:`~repro.hardware.device.resolve_device` falls back on
:func:`fleet_device`, so every CLI / service / archive path that resolves
devices accepts fleet names with no further wiring.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hardware.device import DeviceProfile, XAVIER_MAXN

__all__ = ["FamilySpec", "FLEET_FAMILIES", "DEFAULT_FLEET_SEED",
           "generate_device", "generate_fleet", "fleet_device",
           "fleet_name", "parse_fleet_name"]

#: Canonical seed of the unsuffixed names (``phone-03`` ≡ ``phone-03@s0``).
DEFAULT_FLEET_SEED = 0

#: The reference device all ratio draws perturb around.
PROXY = XAVIER_MAXN

_NAME_RE = re.compile(r"^(?P<family>[a-z][a-z0-9-]*?)-(?P<index>\d{1,4})"
                      r"(?:@s(?P<seed>\d+))?$")

#: Draw names in their fixed consumption order.  ``log`` ranges are drawn
#: as ``exp(U(log lo, log hi))``, ``lin`` ranges as ``U(lo, hi)``.
_LOG_DRAWS = ("speed", "compute_ratio", "memory_ratio", "overhead_ratio",
              "fusion_ratio", "depthwise_ratio", "network_overhead_ms",
              "static_power_w", "energy_per_gmac_mj", "energy_per_gb_mj")
_LIN_DRAWS = ("utilization_half_channels", "isolated_per_launch",
              "latency_noise_ms", "latency_noise_rel")


@dataclass(frozen=True)
class FamilySpec:
    """A distribution over device-model parameters (see module docstring).

    Ranges
    ------
    speed:
        Whole-network latency scale relative to the proxy device
        (log-uniform; decades across families).
    compute_ratio / memory_ratio / overhead_ratio / fusion_ratio:
        Log-uniform perturbations of the roofline balance: the weight of
        the compute term, memory-traffic term, per-kernel launch overhead,
        and fusion saving relative to the proxy's balance at this speed.
    depthwise_ratio:
        Multiplier on the proxy's depthwise-vs-dense efficiency gap
        (``> 1`` = depthwise-friendlier than a Xavier, as on CPUs).
    utilization_half_channels / network_overhead_ms / noise / energy:
        Absolute constants (network overhead and measurement noise are
        rank-neutral; energy constants feed the energy model only).
    isolated_per_launch:
        Isolated-measurement overhead as a multiple of the launch overhead
        (what poisons additive LUTs on this device).
    """

    name: str
    description: str
    batch_size: int
    speed: Tuple[float, float]
    compute_ratio: Tuple[float, float] = (0.8, 1.25)
    memory_ratio: Tuple[float, float] = (0.7, 1.5)
    overhead_ratio: Tuple[float, float] = (0.6, 1.6)
    fusion_ratio: Tuple[float, float] = (0.7, 1.4)
    depthwise_ratio: Tuple[float, float] = (0.8, 1.3)
    utilization_half_channels: Tuple[float, float] = (15.0, 35.0)
    isolated_per_launch: Tuple[float, float] = (5.0, 15.0)
    network_overhead_ms: Tuple[float, float] = (0.5, 3.0)
    latency_noise_ms: Tuple[float, float] = (0.02, 0.08)
    latency_noise_rel: Tuple[float, float] = (0.0, 0.01)
    static_power_w: Tuple[float, float] = (4.0, 12.0)
    energy_per_gmac_mj: Tuple[float, float] = (40.0, 120.0)
    energy_per_gb_mj: Tuple[float, float] = (60.0, 150.0)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        for field in _LOG_DRAWS + _LIN_DRAWS:
            lo, hi = getattr(self, field)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bad range for {field!r}: ({lo}, {hi})")
            if field in _LOG_DRAWS and lo <= 0:
                raise ValueError(f"log-uniform {field!r} needs lo > 0")
            if field in _LIN_DRAWS and lo < 0:
                raise ValueError(f"{field!r} must be non-negative")

    # ------------------------------------------------------------------
    def sample(self, index: int, seed: int = DEFAULT_FLEET_SEED
               ) -> DeviceProfile:
        """Member ``index`` of this family under ``seed`` (reproducible)."""
        if index < 0:
            raise ValueError("fleet member index must be non-negative")
        rng = np.random.default_rng([seed, index, _family_salt(self.name)])
        draw: Dict[str, float] = {}
        for field in _LOG_DRAWS:
            lo, hi = getattr(self, field)
            draw[field] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for field in _LIN_DRAWS:
            lo, hi = getattr(self, field)
            draw[field] = float(rng.uniform(lo, hi))

        # Derive roofline constants so this device's whole-network latency
        # is ≈ speed × the proxy's, with the term balance perturbed by the
        # ratio draws.  The batch factor keeps "speed" batch-independent:
        # a batch-1 device at speed 1 matches the proxy's batch-8 latency.
        batch_factor = self.batch_size / PROXY.batch_size
        slow = draw["speed"]
        kernel_launch = PROXY.kernel_launch_ms * slow * draw["overhead_ratio"]
        return DeviceProfile(
            name=fleet_name(self.name, index, seed),
            batch_size=self.batch_size,
            peak_macs_per_ms=PROXY.peak_macs_per_ms * batch_factor
            / (slow * draw["compute_ratio"]),
            dense_efficiency=PROXY.dense_efficiency,
            depthwise_efficiency=min(
                PROXY.dense_efficiency,
                PROXY.depthwise_efficiency * draw["depthwise_ratio"]),
            utilization_half_channels=draw["utilization_half_channels"],
            bandwidth_bytes_per_ms=PROXY.bandwidth_bytes_per_ms
            * batch_factor / (slow * draw["memory_ratio"]),
            kernel_launch_ms=kernel_launch,
            network_overhead_ms=draw["network_overhead_ms"],
            isolated_overhead_ms=kernel_launch * draw["isolated_per_launch"],
            fusion_saving_ms=PROXY.fusion_saving_ms * slow
            * draw["fusion_ratio"],
            latency_noise_ms=draw["latency_noise_ms"],
            latency_noise_rel=draw["latency_noise_rel"],
            static_power_w=draw["static_power_w"],
            energy_per_gmac_mj=draw["energy_per_gmac_mj"],
            energy_per_gb_mj=draw["energy_per_gb_mj"],
            energy_noise_mj=PROXY.energy_noise_mj,
            energy_drift_mj=PROXY.energy_drift_mj,
            energy_drift_rho=PROXY.energy_drift_rho,
        )


def _family_salt(family: str) -> int:
    """Stable per-family stream salt (CRC-32 of the name)."""
    return zlib.crc32(family.encode("utf-8"))


def fleet_name(family: str, index: int, seed: int = DEFAULT_FLEET_SEED
               ) -> str:
    """Canonical device name of one fleet member."""
    suffix = "" if seed == DEFAULT_FLEET_SEED else f"@s{seed}"
    return f"{family}-{index:02d}{suffix}"


def parse_fleet_name(name: str) -> Optional[Tuple[str, int, int]]:
    """``"phone-03@s7"`` → ``("phone", 3, 7)``; ``None`` if not fleet-shaped
    or the family is unregistered."""
    match = _NAME_RE.match(name)
    if match is None or match.group("family") not in FLEET_FAMILIES:
        return None
    seed = match.group("seed")
    return (match.group("family"), int(match.group("index")),
            DEFAULT_FLEET_SEED if seed is None else int(seed))


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------

_PHONE = FamilySpec(
    name="phone",
    description="mobile SoC accelerators: batch-1 interactive, modest "
                "bandwidth, depthwise-friendlier than the proxy GPU",
    batch_size=1,
    speed=(0.7, 4.0),
    memory_ratio=(0.9, 2.0),
    overhead_ratio=(0.6, 1.5),
    depthwise_ratio=(0.9, 1.8),
    utilization_half_channels=(10.0, 35.0),
    network_overhead_ms=(0.5, 3.0),
    latency_noise_ms=(0.02, 0.10),
    latency_noise_rel=(0.005, 0.02),
    static_power_w=(2.0, 6.0),
    energy_per_gmac_mj=(40.0, 120.0),
    energy_per_gb_mj=(60.0, 150.0),
)

_MCU = FamilySpec(
    name="mcu",
    description="microcontrollers: 100-600x slower, CPU-friendly "
                "depthwise, near-zero launch overhead",
    batch_size=1,
    speed=(100.0, 600.0),
    memory_ratio=(0.8, 1.8),
    overhead_ratio=(0.05, 0.25),
    fusion_ratio=(0.2, 0.6),
    depthwise_ratio=(1.1, 1.8),
    utilization_half_channels=(4.0, 12.0),
    network_overhead_ms=(0.05, 0.5),
    latency_noise_ms=(0.5, 5.0),
    latency_noise_rel=(0.002, 0.01),
    static_power_w=(0.05, 0.5),
    energy_per_gmac_mj=(5.0, 30.0),
    energy_per_gb_mj=(10.0, 50.0),
)

_SERVER_CPU = FamilySpec(
    name="server-cpu",
    description="many-core server CPUs: batch 8, high bandwidth, good "
                "depthwise utilisation, tiny dispatch overhead",
    batch_size=8,
    speed=(0.4, 2.5),
    memory_ratio=(0.7, 1.3),
    overhead_ratio=(0.15, 0.6),
    fusion_ratio=(0.3, 0.9),
    depthwise_ratio=(1.1, 1.8),
    utilization_half_channels=(8.0, 20.0),
    network_overhead_ms=(0.1, 0.6),
    latency_noise_ms=(0.01, 0.05),
    latency_noise_rel=(0.01, 0.04),
    static_power_w=(40.0, 120.0),
    energy_per_gmac_mj=(80.0, 200.0),
    energy_per_gb_mj=(100.0, 250.0),
)

_EDGE_GPU = FamilySpec(
    name="edge-gpu",
    description="Jetson-class embedded GPUs around the proxy device",
    batch_size=8,
    speed=(0.5, 3.0),
    depthwise_ratio=(0.6, 1.4),
    utilization_half_channels=(15.0, 35.0),
    network_overhead_ms=(1.0, 3.0),
    latency_noise_ms=(0.02, 0.06),
    latency_noise_rel=(0.0, 0.01),
    static_power_w=(5.0, 15.0),
    energy_per_gmac_mj=(40.0, 100.0),
    energy_per_gb_mj=(60.0, 130.0),
)

#: Registered parametric families, by name.
FLEET_FAMILIES: Dict[str, FamilySpec] = {
    spec.name: spec for spec in (_PHONE, _MCU, _SERVER_CPU, _EDGE_GPU)
}


# ----------------------------------------------------------------------
# Generation + name resolution
# ----------------------------------------------------------------------

def generate_device(family: str, index: int,
                    seed: int = DEFAULT_FLEET_SEED) -> DeviceProfile:
    """One named member of a registered family."""
    try:
        spec = FLEET_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown fleet family {family!r}; registered: "
            f"{', '.join(sorted(FLEET_FAMILIES))}") from None
    return spec.sample(index, seed)


def generate_fleet(family: str, count: int,
                   seed: int = DEFAULT_FLEET_SEED) -> List[DeviceProfile]:
    """Members ``0..count-1`` of a family (each independent of ``count``)."""
    if count < 1:
        raise ValueError("fleet size must be positive")
    return [generate_device(family, i, seed) for i in range(count)]


def fleet_device(name: str) -> Optional[DeviceProfile]:
    """Resolve a fleet device name, or ``None`` if not fleet-shaped
    (the fallback of :func:`repro.hardware.device.resolve_device`)."""
    parsed = parse_fleet_name(name)
    if parsed is None:
        return None
    family, index, seed = parsed
    return FLEET_FAMILIES[family].sample(index, seed)

