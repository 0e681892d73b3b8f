"""Simulated embedded inference devices.

The paper measures on an Nvidia Jetson AGX Xavier (MAXN power mode, batch
size 8).  We do not have that hardware, so :class:`DeviceProfile` defines an
analytic performance model with the properties the paper's experiments rely
on:

1. **Latency is not proportional to FLOPs** (Figure 2).  The model is a
   roofline: each kernel pays a compute term (throughput scaled by a
   channel-utilisation curve and a per-kernel-type efficiency — depthwise
   convolutions utilise the GPU far worse than dense 1×1 convolutions), a
   memory-traffic term, and a fixed per-kernel launch overhead.  Skip
   connections are free; launch overheads and memory terms add latency with
   zero FLOPs.

2. **An additive LUT mis-predicts whole-network latency** (Figure 5 Right).
   Isolated per-operator measurement pays an extra synchronisation overhead
   per measurement (``isolated_overhead_ms``), and whole-network execution
   enjoys a small fusion saving for every pair of adjacent non-skip layers
   that the LUT cannot see.  Summing LUT entries therefore over-predicts by
   a systematic, architecture-dependent gap.

3. **Measurements are noisy**; energy measurements additionally drift with
   device temperature (Figure 8 Left), modelled as an AR(1) random walk.

Constants are calibrated (see ``tests/hardware/test_calibration.py``) so the
full LightNAS space spans roughly 14–34 ms with searched architectures in
the paper's 20–30 ms band, and energy in the few-hundred-mJ band of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["DeviceProfile", "XAVIER_MAXN", "EDGE_NANO", "DEVICE_ALIASES",
           "resolve_device", "known_devices", "device_hints"]


@dataclass(frozen=True)
class DeviceProfile:
    """Analytic performance model of an embedded inference device.

    All throughput/overhead constants describe the *deployed* regime the
    paper measures (fp16, fused BN, fixed batch size).
    """

    name: str
    batch_size: int = 8

    # Compute roofline -------------------------------------------------
    #: Peak dense-conv throughput in MACs per millisecond.
    peak_macs_per_ms: float = 4.9e8
    #: Efficiency multiplier for dense (1×1 / full) convolutions.
    dense_efficiency: float = 1.0
    #: Efficiency multiplier for depthwise convolutions (low arithmetic
    #: intensity ⇒ poor GPU utilisation).
    depthwise_efficiency: float = 0.073
    #: Channel-utilisation half-point: utilisation = c / (c + this).
    utilization_half_channels: float = 24.0

    # Memory -----------------------------------------------------------
    #: Effective memory bandwidth in bytes per millisecond (cache-aware).
    bandwidth_bytes_per_ms: float = 7.3e8

    # Overheads ----------------------------------------------------------
    #: Fixed overhead per kernel launch (ms).
    kernel_launch_ms: float = 0.048
    #: Fixed per-inference overhead: host-device transfer, scheduling (ms).
    network_overhead_ms: float = 1.8
    #: Extra synchronisation overhead when an operator is measured in
    #: isolation (this is what poisons the additive LUT).
    isolated_overhead_ms: float = 0.44
    #: Latency saved per adjacent pair of non-skip layers by kernel fusion
    #: in whole-network execution (invisible to the LUT).
    fusion_saving_ms: float = 0.15

    # Measurement noise ---------------------------------------------------
    #: Absolute std-dev of latency measurement noise (ms).
    latency_noise_ms: float = 0.035
    #: Relative std-dev of latency measurement noise.
    latency_noise_rel: float = 0.0

    # Energy model --------------------------------------------------------
    #: Static power draw in watts (1 W × 1 ms = 1 mJ / ms).
    static_power_w: float = 9.0
    #: Dynamic energy per giga-MAC (mJ), folding in compute + SRAM traffic.
    energy_per_gmac_mj: float = 65.0
    #: Dynamic energy per gigabyte of DRAM traffic (mJ).
    energy_per_gb_mj: float = 90.0
    #: White measurement noise on energy (mJ).
    energy_noise_mj: float = 3.0
    #: Std-dev of the per-step increment of the AR(1) temperature drift (mJ).
    energy_drift_mj: float = 1.0
    #: AR(1) coefficient of the temperature drift.
    energy_drift_rho: float = 0.99

    def utilization(self, channels: int) -> float:
        """Fraction of peak throughput achieved at a given channel width."""
        if channels <= 0:
            raise ValueError(f"channels must be positive, got {channels}")
        return channels / (channels + self.utilization_half_channels)



#: The paper's platform: Jetson AGX Xavier in MAXN mode, batch size 8.
XAVIER_MAXN = DeviceProfile(name="jetson-agx-xavier-maxn")

#: A weaker device profile used to demonstrate generality (not in the
#: paper's tables; exercised by tests and the multi-device example).
EDGE_NANO = DeviceProfile(
    name="edge-nano",
    peak_macs_per_ms=1.2e8,
    depthwise_efficiency=0.05,
    bandwidth_bytes_per_ms=2.0e8,
    kernel_launch_ms=0.09,
    network_overhead_ms=2.5,
    static_power_w=5.0,
)

#: CLI shorthand → profile.  Full profile names are accepted too.
DEVICE_ALIASES = {
    "xavier": XAVIER_MAXN,
    "edge-nano": EDGE_NANO,
}


def known_devices() -> List[str]:
    """Sorted, deduplicated static device names (aliases + profile names).

    A device whose alias equals its profile name (e.g. ``edge-nano``)
    appears exactly once.
    """
    names = set(DEVICE_ALIASES)
    names.update(p.name for p in DEVICE_ALIASES.values())
    return sorted(names)


def device_hints() -> List[str]:
    """Name patterns accepted beyond the static table (fleet families)."""
    from ..fleet.generator import FLEET_FAMILIES

    return [f"{family}-<NN>[@s<seed>]" for family in sorted(FLEET_FAMILIES)]


def resolve_device(name: str) -> DeviceProfile:
    """Look up a device by CLI alias, full profile name, or fleet name
    (``phone-03``, ``phone-03@s7``: see :mod:`repro.fleet.generator`)."""
    if name in DEVICE_ALIASES:
        return DEVICE_ALIASES[name]
    for profile in DEVICE_ALIASES.values():
        if profile.name == name:
            return profile
    # imported here: the fleet generator builds on this module's profiles
    from ..fleet.generator import fleet_device

    profile = fleet_device(name)
    if profile is not None:
        return profile
    known = ", ".join(known_devices())
    raise ValueError(f"unknown device {name!r}; known: {known}; "
                     f"fleet devices: {', '.join(device_hints())}")
