"""Tests of the search-cost accounting (Table 1)."""

import pytest

from repro.eval import cost


class TestPaperConstants:
    def test_lightnas_is_cheapest_differentiable(self):
        assert cost.PAPER_REPORTED_GPU_HOURS["lightnas"] == 10.0
        for method in ("fbnet", "proxylessnas", "darts"):
            assert (cost.PAPER_REPORTED_GPU_HOURS[method]
                    > cost.PAPER_REPORTED_GPU_HOURS["lightnas"])

    def test_rl_is_most_expensive(self):
        assert cost.PAPER_REPORTED_GPU_HOURS["mnasnet-rl"] == max(
            cost.PAPER_REPORTED_GPU_HOURS.values())

    def test_implicit_runs(self):
        assert cost.IMPLICIT_RUNS["lightnas"] == 1
        assert cost.IMPLICIT_RUNS["fbnet"] == 10


class TestSimulatedCost:
    def test_lightnas_calibration_anchor(self):
        """A full paper run (4500 steps × 21 paths) costs 10 GPU hours."""
        hours = cost.simulated_gpu_hours("lightnas", 4500, 21)
        assert hours == pytest.approx(10.0)

    def test_multipath_costs_k_times_more(self):
        single = cost.simulated_gpu_hours("lightnas", 1000, 21)
        multi = cost.simulated_gpu_hours("fbnet", 1000, 21 * 7)
        assert multi == pytest.approx(7 * single)

    def test_trained_samples_term(self):
        hours = cost.simulated_gpu_hours("mnasnet-rl", 0, 0, trained_samples=8000)
        assert hours == pytest.approx(40_000.0)

    def test_amortised_term(self):
        # OFA's supernet cost is one-off, outside the executed-step model
        assert cost.simulated_gpu_hours("ofa-evolution", 0, 0) == 0.0
        assert cost.OFA_AMORTISED_GPU_HOURS == pytest.approx(1200.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cost.simulated_gpu_hours("x", -1, 5)


class TestTotalDesignCost:
    def test_lightnas_total_equals_explicit(self):
        mc = cost.total_design_cost("lightnas")
        assert mc.total_gpu_hours == 10.0

    def test_fbnet_pays_sweep(self):
        mc = cost.total_design_cost("fbnet")
        assert mc.total_gpu_hours == 216.0 * 10

    def test_explicit_override(self):
        mc = cost.total_design_cost("fbnet", explicit_gpu_hours=50.0)
        assert mc.total_gpu_hours == 500.0

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            cost.total_design_cost("alphafold")

    def test_one_time_search_is_cheapest_total(self):
        """The paper's headline: counting implicit λ-sweeps, LightNAS's total
        design cost beats every baseline by an order of magnitude."""
        lightnas = cost.total_design_cost("lightnas").total_gpu_hours
        for method in ("darts", "fbnet", "proxylessnas", "ofa-evolution",
                       "mnasnet-rl", "unas"):
            assert cost.total_design_cost(method).total_gpu_hours > 10 * lightnas
