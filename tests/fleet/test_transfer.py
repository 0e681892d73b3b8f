"""Monotone proxy→target maps: fitting, inversion, serialization."""

import json

import numpy as np
import pytest

from repro.fleet import (
    MonotoneMap,
    ProxyTransfer,
    generate_fleet,
    isotonic_fit,
)
from repro.hardware.latency import LatencyModel
from repro.predictor.analytic import AnalyticCostPredictor


class TestIsotonicFit:
    def test_already_monotone_is_untouched(self):
        y = np.array([1.0, 2.0, 4.0, 8.0])
        fitted = isotonic_fit(np.arange(4.0), y, np.ones(4))
        assert np.array_equal(fitted, y)

    def test_violations_pool_to_weighted_mean(self):
        fitted = isotonic_fit(np.arange(3.0),
                              np.array([3.0, 1.0, 2.0]), np.ones(3))
        assert np.allclose(fitted, [2.0, 2.0, 2.0])

    def test_weights_shift_the_pool(self):
        fitted = isotonic_fit(np.arange(2.0), np.array([4.0, 0.0]),
                              np.array([3.0, 1.0]))
        assert np.allclose(fitted, [3.0, 3.0])

    def test_result_is_non_decreasing(self, rng):
        y = rng.normal(size=50)
        fitted = isotonic_fit(np.arange(50.0), y, np.ones(50))
        assert (np.diff(fitted) >= 0).all()
        # isotonic regression preserves the weighted mean
        assert np.isclose(fitted.mean(), y.mean())


class TestMonotoneMap:
    def test_fit_recovers_monotone_relation(self, rng):
        x = rng.uniform(10, 30, size=200)
        y = 3.0 * x + 5.0 + rng.normal(0, 0.3, size=200)
        fitted = MonotoneMap.fit(x, y)
        probe = np.linspace(12, 28, 64)
        assert np.allclose(fitted.transfer_many(probe), 3 * probe + 5,
                           rtol=0.05)
        assert fitted.calibration_size == 200

    def test_map_is_strictly_increasing(self, rng):
        x = rng.uniform(0, 1, size=100)
        y = np.round(x * 4)  # plateaus galore
        fitted = MonotoneMap.fit(x, y)
        probe = np.sort(rng.uniform(-0.5, 1.5, size=300))
        out = fitted.transfer_many(probe)
        assert (np.diff(out) > 0).all()

    def test_extrapolation_uses_boundary_slopes(self):
        fitted = MonotoneMap.fit(np.array([0.0, 1.0, 2.0]),
                                 np.array([0.0, 1.0, 3.0]))
        assert fitted.transfer(-1.0) == pytest.approx(-1.0, abs=1e-6)
        assert fitted.transfer(3.0) == pytest.approx(5.0, abs=1e-6)

    def test_scalar_equals_vector_bitwise(self, rng):
        x = rng.uniform(5, 50, size=80)
        y = x ** 1.5 + rng.normal(0, 1, size=80)
        fitted = MonotoneMap.fit(x, y)
        probe = rng.uniform(0, 60, size=40)
        batch = fitted.transfer_many(probe)
        for i, value in enumerate(probe):
            assert fitted.transfer(float(value)) == batch[i]

    def test_tied_proxy_values_collapse_to_mean(self):
        fitted = MonotoneMap.fit(np.array([1.0, 1.0, 2.0]),
                                 np.array([2.0, 4.0, 5.0]))
        assert np.array_equal(fitted.x_knots, [1.0, 2.0])
        assert np.allclose(fitted.y_knots, [3.0, 5.0])

    def test_inverse_round_trips(self, rng):
        x = rng.uniform(10, 30, size=150)
        y = np.sqrt(x) * 10 + rng.normal(0, 0.2, size=150)
        fitted = MonotoneMap.fit(x, y)
        for probe in (11.0, 15.5, 29.0, 5.0, 40.0):  # inside and outside
            assert fitted.inverse(fitted.transfer(probe)) == \
                pytest.approx(probe, rel=1e-6)

    def test_payload_round_trip_is_bit_exact(self, rng):
        x = rng.uniform(0, 100, size=60)
        y = x * 2 + rng.normal(0, 5, size=60)
        fitted = MonotoneMap.fit(x, y)
        # through actual JSON text, as the archive sidecar would store it
        restored = MonotoneMap.from_payload(
            json.loads(json.dumps(fitted.to_payload())))
        assert np.array_equal(restored.x_knots, fitted.x_knots)
        assert np.array_equal(restored.y_knots, fitted.y_knots)
        assert restored.strict_slope == fitted.strict_slope
        assert restored.calibration_size == fitted.calibration_size
        probe = rng.uniform(-10, 110, size=30)
        assert np.array_equal(restored.transfer_many(probe),
                              fitted.transfer_many(probe))

    def test_fit_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            MonotoneMap.fit([1.0], [2.0])
        with pytest.raises(ValueError, match="aligned"):
            MonotoneMap.fit([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            MonotoneMap.fit([1.0, np.nan], [1.0, 2.0])

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MonotoneMap(x_knots=np.array([1.0, 1.0]),
                        y_knots=np.array([1.0, 2.0]), strict_slope=1e-9)
        with pytest.raises(ValueError, match="non-decreasing"):
            MonotoneMap(x_knots=np.array([1.0, 2.0]),
                        y_knots=np.array([2.0, 1.0]), strict_slope=1e-9)
        with pytest.raises(ValueError, match="missing"):
            MonotoneMap.from_payload({"x_knots": [1.0, 2.0]})


class TestProxyTransfer:
    @pytest.fixture(scope="class")
    def calibrated(self, tiny_space):
        proxy = AnalyticCostPredictor(tiny_space, "macs_m")
        fleet = generate_fleet("phone", 2) + generate_fleet("mcu", 1)
        transfer = ProxyTransfer.calibrate(
            proxy, tiny_space, fleet, num_samples=60, seed=3,
            proxy_device="analytic-macs")
        return proxy, fleet, transfer

    def test_calibrate_builds_one_map_per_device(self, calibrated):
        _, fleet, transfer = calibrated
        assert transfer.devices == sorted(d.name for d in fleet)
        assert len(transfer) == 3
        assert transfer.proxy_device == "analytic-macs"
        for name in transfer.devices:
            assert transfer.map_for(name).calibration_size == 60

    def test_transfer_tracks_device_scale(self, calibrated, tiny_space):
        """Transferred values land in the target device's latency range,
        decades away from the proxy metric's range."""
        proxy, fleet, transfer = calibrated
        ops = tiny_space.sample_indices(50, np.random.default_rng(11))
        proxy_values = proxy.predict_population(ops)
        mcu = next(d for d in fleet if d.name.startswith("mcu"))
        transferred = transfer.transfer_many(mcu.name, proxy_values)
        truth = LatencyModel(tiny_space, mcu).latency_many(ops)
        assert transferred.min() > 0.5 * truth.min()
        assert transferred.max() < 2.0 * truth.max()

    def test_unknown_device_names_calibrated_ones(self, calibrated):
        _, _, transfer = calibrated
        with pytest.raises(ValueError, match="phone-00"):
            transfer.map_for("gpuzilla")

    def test_payload_round_trip(self, calibrated, tiny_space):
        proxy, _, transfer = calibrated
        restored = ProxyTransfer.from_payload(
            json.loads(json.dumps(transfer.to_payload())))
        assert restored.devices == transfer.devices
        assert restored.proxy_device == transfer.proxy_device
        assert restored.calibration_seed == transfer.calibration_seed
        ops = tiny_space.sample_indices(10, np.random.default_rng(9))
        values = proxy.predict_population(ops)
        for name in transfer.devices:
            assert np.array_equal(restored.transfer_many(name, values),
                                  transfer.transfer_many(name, values))

    def test_calibration_errors(self, tiny_space):
        proxy = AnalyticCostPredictor(tiny_space, "macs_m")
        fleet = generate_fleet("phone", 1)
        with pytest.raises(ValueError, match="at least 2"):
            ProxyTransfer.calibrate(proxy, tiny_space, fleet, num_samples=1)
        with pytest.raises(ValueError, match="duplicate"):
            ProxyTransfer.calibrate(proxy, tiny_space, fleet + fleet,
                                    num_samples=10)
        with pytest.raises(ValueError, match="'maps'"):
            ProxyTransfer.from_payload({})

    def test_calibration_stream_independent_of_fleet_growth(self, tiny_space):
        """Growing the fleet must not change the maps of devices already
        calibrated (per-device RNG streams are keyed by position)."""
        proxy = AnalyticCostPredictor(tiny_space, "macs_m")
        small = ProxyTransfer.calibrate(
            proxy, tiny_space, generate_fleet("phone", 2), num_samples=40)
        grown = ProxyTransfer.calibrate(
            proxy, tiny_space,
            generate_fleet("phone", 2) + generate_fleet("mcu", 2),
            num_samples=40)
        for name in small.devices:
            assert np.array_equal(grown.map_for(name).x_knots,
                                  small.map_for(name).x_knots)
            assert np.array_equal(grown.map_for(name).y_knots,
                                  small.map_for(name).y_knots)
