"""Tests of SearchResult / SearchTrajectory."""

import json

import pytest

from repro.core.result import SearchResult, SearchTrajectory
from repro.search_space.space import Architecture


def make_result(predicted=24.1, target=24.0):
    trajectory = SearchTrajectory()
    arch = Architecture((0, 1, 2))
    trajectory.record(0, 30.0, 0.0, 1.0, 5.0, arch)
    trajectory.record(1, predicted, 0.1, 0.9, 4.0, arch)
    return SearchResult(
        architecture=arch,
        predicted_metric=predicted,
        target=target,
        final_lambda=0.1,
        trajectory=trajectory,
        search_paths_per_step=3,
        num_search_steps=100,
    )


class TestTrajectory:
    def test_record_and_len(self):
        t = SearchTrajectory()
        assert len(t) == 0
        t.record(0, 1.0, 0.0, 0.5, 5.0, Architecture((0,)))
        assert len(t) == 1
        assert t.predicted_metric == [1.0]
        assert t.temperature == [5.0]


class TestSearchResult:
    def test_constraint_error(self):
        res = make_result(predicted=25.2, target=24.0)
        assert res.constraint_error == pytest.approx(1.2 / 24.0)

    def test_constraint_error_symmetric(self):
        assert (make_result(22.8, 24.0).constraint_error
                == pytest.approx(make_result(25.2, 24.0).constraint_error))

    def test_summary_fields(self):
        summary = make_result().summary()
        assert summary["architecture"] == [0, 1, 2]
        assert summary["target"] == 24.0
        assert summary["num_search_steps"] == 100
        assert summary["search_paths_per_step"] == 3

    def test_to_json_parses(self):
        payload = json.loads(json.dumps(make_result().summary()))
        assert payload["metric_name"] == "latency_ms"
