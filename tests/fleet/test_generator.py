"""Parametric device families: reproducibility and name resolution."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.fleet import (
    DEFAULT_FLEET_SEED,
    FLEET_FAMILIES,
    FamilySpec,
    fleet_device,
    fleet_name,
    generate_device,
    generate_fleet,
    parse_fleet_name,
)
from repro.hardware.device import resolve_device
from repro.hardware.latency import LatencyModel


class TestGeneration:
    def test_members_are_reproducible(self):
        a = generate_device("phone", 3)
        b = generate_device("phone", 3)
        assert a == b

    def test_member_independent_of_fleet_size_and_order(self):
        """phone-03 denotes the same device however it is instantiated."""
        alone = generate_device("phone", 3)
        in_small = generate_fleet("phone", 4)[3]
        in_large = generate_fleet("phone", 12)[3]
        assert alone == in_small == in_large

    def test_seed_changes_device_and_name(self):
        base = generate_device("mcu", 1)
        other = generate_device("mcu", 1, seed=5)
        assert base.name == "mcu-01"
        assert other.name == "mcu-01@s5"
        assert base.peak_macs_per_ms != other.peak_macs_per_ms

    def test_families_differ(self):
        phone = generate_device("phone", 0)
        mcu = generate_device("mcu", 0)
        assert phone.peak_macs_per_ms != mcu.peak_macs_per_ms

    def test_profiles_are_physical(self):
        for family in FLEET_FAMILIES:
            for device in generate_fleet(family, 6):
                assert device.peak_macs_per_ms > 0
                assert device.bandwidth_bytes_per_ms > 0
                assert 0 < device.depthwise_efficiency <= \
                    device.dense_efficiency
                assert device.kernel_launch_ms >= 0
                assert device.isolated_overhead_ms >= 0
                assert device.batch_size >= 1

    def test_mcu_is_decades_slower_than_edge_gpu(self):
        """Families span the decades they advertise (speed is per-inference,
        so compare throughput normalised by batch size)."""
        mcu = generate_device("mcu", 0)
        gpu = generate_device("edge-gpu", 0)
        assert (gpu.peak_macs_per_ms / gpu.batch_size) > \
            20 * (mcu.peak_macs_per_ms / mcu.batch_size)

    def test_generated_profiles_run_the_latency_model(self, tiny_space):
        device = generate_device("server-cpu", 2)
        model = LatencyModel(tiny_space, device)
        ops = tiny_space.sample_indices(4, np.random.default_rng(0))
        latencies = model.latency_many(ops)
        assert np.isfinite(latencies).all() and (latencies > 0).all()

    def test_unknown_family_is_an_error(self):
        with pytest.raises(ValueError, match="unknown fleet family"):
            generate_device("toaster", 0)
        with pytest.raises(ValueError, match="positive"):
            generate_fleet("phone", 0)
        with pytest.raises(ValueError, match="non-negative"):
            generate_device("phone", -1)


class TestNames:
    def test_fleet_name_round_trip(self):
        assert parse_fleet_name(fleet_name("phone", 3)) == \
            ("phone", 3, DEFAULT_FLEET_SEED)
        assert parse_fleet_name(fleet_name("server-cpu", 11, seed=9)) == \
            ("server-cpu", 11, 9)

    def test_non_fleet_names_parse_to_none(self):
        for name in ("xavier", "edge-nano", "phone", "phone-", "phone-x",
                     "toaster-03", "phone-03@", "phone-03@s"):
            assert parse_fleet_name(name) is None
            assert fleet_device(name) is None

    def test_resolve_device_accepts_fleet_names(self):
        device = resolve_device("edge-gpu-04")
        assert device == generate_device("edge-gpu", 4)
        seeded = resolve_device("edge-gpu-04@s2")
        assert seeded == generate_device("edge-gpu", 4, seed=2)
        assert seeded != device

    def test_fleet_names_resolve_without_importing_the_fleet(self):
        """A fresh process resolves fleet names through the device module
        alone, before anything imports :mod:`repro.fleet`."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        code = ("from repro.hardware.device import resolve_device; "
                "print(resolve_device('phone-03').name)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == generate_device("phone", 3).name

    def test_resolve_device_error_mentions_fleet_patterns(self):
        with pytest.raises(ValueError) as info:
            resolve_device("gpuzilla")
        message = str(info.value)
        assert "phone-<NN>" in message
        # static names are listed exactly once (alias == profile name)
        assert message.count("edge-nano") == 1


class TestFamilySpec:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="lo > 0"):
            FamilySpec(name="bad", description="", batch_size=1,
                       speed=(0.0, 1.0))
        with pytest.raises(ValueError, match="bad range"):
            FamilySpec(name="bad", description="", batch_size=1,
                       speed=(2.0, 1.0))
        with pytest.raises(ValueError, match="batch_size"):
            FamilySpec(name="bad", description="", batch_size=0,
                       speed=(1.0, 2.0))
