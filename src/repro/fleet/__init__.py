"""`repro.fleet` — parametric device fleets + proxy-device latency transfer.

Turns the single-device reproduction into an N-device retargeting system
(ROADMAP item 1, "One Proxy Device Is Enough" in PAPERS.md):

* :mod:`repro.fleet.generator` — seeded parametric hardware families
  (``phone``, ``mcu``, ``server-cpu``, ``edge-gpu``) whose members resolve
  by name (``phone-03``) through :func:`repro.hardware.device.
  resolve_device` everywhere devices are accepted;
* :mod:`repro.fleet.transfer` — strictly-monotone isotonic maps from
  proxy-predicted latency to each target device, fit from ~100 calibration
  pairs instead of a fresh 10k-measurement campaign per device;
* :mod:`repro.fleet.retarget` — one archive sweep (or one search) served
  to every device of the fleet: per-device constraint satisfaction and
  Pareto fronts through the existing archive/query/serve stack.
"""

from .generator import (
    DEFAULT_FLEET_SEED,
    FLEET_FAMILIES,
    FamilySpec,
    fleet_device,
    fleet_name,
    generate_device,
    generate_fleet,
    parse_fleet_name,
)
from .retarget import (
    device_report,
    evaluate_transfer,
    retarget_archive,
    retarget_index,
)
from .transfer import MonotoneMap, ProxyTransfer, isotonic_fit

__all__ = [
    "DEFAULT_FLEET_SEED",
    "FLEET_FAMILIES",
    "FamilySpec",
    "MonotoneMap",
    "ProxyTransfer",
    "device_report",
    "evaluate_transfer",
    "fleet_device",
    "fleet_name",
    "generate_device",
    "generate_fleet",
    "isotonic_fit",
    "parse_fleet_name",
    "retarget_archive",
    "retarget_index",
]
