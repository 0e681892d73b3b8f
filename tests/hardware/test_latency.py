"""Tests of the roofline latency model and measurement interface."""

from dataclasses import replace

import numpy as np
import pytest

from repro.hardware.device import EDGE_NANO, XAVIER_MAXN
from repro.hardware.latency import LatencyModel
from repro.hardware.lut import LatencyLUT
from repro.search_space.operators import LIGHTNAS_OPERATORS, SKIP_INDEX
from repro.search_space.space import Architecture


class TestDeviceProfile:
    def test_utilization_monotone(self):
        d = XAVIER_MAXN
        assert d.utilization(8) < d.utilization(64) < d.utilization(512)

    def test_utilization_bounded(self):
        assert 0 < XAVIER_MAXN.utilization(1) < XAVIER_MAXN.utilization(10_000) < 1

    def test_utilization_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            XAVIER_MAXN.utilization(0)


class TestOpLatency:
    def test_identity_skip_free(self, full_space, full_latency_model):
        geom = full_space.layer_geometries()[1]  # stride-1, same channels
        assert geom.stride == 1 and geom.in_channels == geom.out_channels
        lat = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[SKIP_INDEX], geom)
        assert lat == 0.0

    def test_typed_skip_costs_something(self, full_space, full_latency_model):
        geom = full_space.layer_geometries()[0]  # stride-2 boundary
        lat = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[SKIP_INDEX], geom)
        assert lat > 0.0

    def test_expansion_monotone(self, full_space, full_latency_model):
        geom = full_space.layer_geometries()[0]
        e3 = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[0], geom)
        e6 = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[1], geom)
        assert e6 > e3

    def test_kernel_monotone(self, full_space, full_latency_model):
        geom = full_space.layer_geometries()[0]
        k3 = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[0], geom)
        k5 = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[2], geom)
        k7 = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[4], geom)
        assert k3 < k5 < k7

    def test_early_layers_cost_more(self, full_space, full_latency_model):
        # Same operator is much more expensive at high resolution.
        geoms = full_space.layer_geometries()
        early = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[1], geoms[1])
        late = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[1], geoms[-1])
        assert early > 2 * late

    def test_se_adds_latency(self, full_space, full_latency_model):
        geom = full_space.layer_geometries()[-1]
        base = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[1], geom)
        se = full_latency_model.op_latency_ms(LIGHTNAS_OPERATORS[1], geom,
                                              with_se=True)
        assert se > base


class TestArchLatency:
    def test_monotone_in_capacity(self, full_space, full_latency_model):
        small = Architecture((0,) * 21)
        big = Architecture((5,) * 21)
        skip = Architecture((SKIP_INDEX,) * 21)
        lat = full_latency_model.latency_ms
        assert lat(skip) < lat(small) < lat(big)

    def test_layer_swap_changes_latency(self, full_space, full_latency_model):
        base = Architecture((0,) * 21)
        upgraded = Architecture((5,) + (0,) * 20)
        assert (full_latency_model.latency_ms(upgraded)
                > full_latency_model.latency_ms(base))

    def test_fusion_pairs_counted(self, full_space, full_latency_model):
        dense = Architecture((0,) * 21)
        assert full_latency_model._fusion_pairs(dense) == 20
        sparse = Architecture((0, SKIP_INDEX) * 10 + (0,))
        assert full_latency_model._fusion_pairs(sparse) == 0

    def test_se_last_layers(self, full_space, full_latency_model):
        arch = Architecture((1,) * 21)
        assert (full_latency_model.latency_ms(arch, with_se_last=9)
                > full_latency_model.latency_ms(arch))

    def test_validates(self, full_latency_model):
        with pytest.raises(ValueError):
            full_latency_model.latency_ms(Architecture((0, 1)))

    def test_deterministic(self, full_space, full_latency_model, rng):
        arch = full_space.sample(rng)
        assert (full_latency_model.latency_ms(arch)
                == full_latency_model.latency_ms(arch))

    def test_slower_device_is_slower(self, full_space, rng):
        arch = full_space.sample(rng)
        fast = LatencyModel(full_space, XAVIER_MAXN).latency_ms(arch)
        slow = LatencyModel(full_space, EDGE_NANO).latency_ms(arch)
        assert slow > fast

    def test_batch_size_scales_latency(self, full_space, rng):
        arch = full_space.sample(rng)
        b8 = LatencyModel(full_space, XAVIER_MAXN).latency_ms(arch)
        b1 = LatencyModel(full_space, replace(XAVIER_MAXN, batch_size=1)).latency_ms(arch)
        assert b1 < b8


class TestMeasurement:
    def test_noise_is_small_and_unbiased(self, full_space, full_latency_model):
        rng = np.random.default_rng(0)
        arch = full_space.sample(rng)
        true = full_latency_model.latency_ms(arch)
        samples = np.array([full_latency_model.measure(arch, rng)
                            for _ in range(300)])
        assert abs(samples.mean() - true) < 0.02
        assert 0.01 < samples.std() < 0.1

    def test_measure_many_shape(self, full_space, full_latency_model, rng):
        archs = full_space.sample_many(5, rng)
        out = full_latency_model.measure_many(archs, rng)
        assert out.shape == (5,)
        assert (out > 0).all()

    def test_isolated_includes_sync_overhead(self, full_latency_model):
        # identity skip in-network costs 0; the LUT's isolated measurement
        # of it pays the synchronisation overhead
        lut = LatencyLUT(full_latency_model, np.random.default_rng(1),
                         trials=50)
        assert full_latency_model.op_table[1, SKIP_INDEX] == 0.0
        assert abs(lut.table[1, SKIP_INDEX]
                   - full_latency_model.device.isolated_overhead_ms) < 0.02

    def test_measurements_positive(self, full_space, full_latency_model):
        rng = np.random.default_rng(2)
        arch = Architecture((SKIP_INDEX,) * 21)
        for _ in range(10):
            assert full_latency_model.measure(arch, rng) > 0
