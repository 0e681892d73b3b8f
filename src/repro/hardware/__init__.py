"""`repro.hardware` — simulated embedded platform (replaces Jetson AGX Xavier).

Analytic FLOPs/params counters, a roofline latency model with per-kernel
overheads and fusion effects, an energy model with temperature-drifting
measurements, and the additive latency-LUT baseline the paper compares its
MLP predictor against.
"""

from .device import EDGE_NANO, XAVIER_MAXN, DeviceProfile
from .energy import EnergyMeter, EnergyModel
from .flops import (
    CostTables,
    OpCost,
    PopulationCost,
    arch_cost,
    arch_cost_many,
    cost_tables,
    count_macs,
    count_macs_many,
    count_params,
    count_params_many,
    fixed_cost,
    op_cost,
)
from .latency import LatencyModel
from .lut import LatencyLUT

__all__ = [
    "DeviceProfile",
    "XAVIER_MAXN",
    "EDGE_NANO",
    "LatencyModel",
    "EnergyModel",
    "EnergyMeter",
    "LatencyLUT",
    "OpCost",
    "CostTables",
    "PopulationCost",
    "op_cost",
    "fixed_cost",
    "cost_tables",
    "arch_cost",
    "arch_cost_many",
    "count_macs",
    "count_params",
    "count_macs_many",
    "count_params_many",
]
