"""Tests for metrics, the active-model theorem, and reporting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ServingResult,
    expected_active_models,
    format_cdf,
    format_series,
    format_table,
    goodput_frontier,
    models_per_gpu_bound,
    percentiles,
    simulate_active_models,
)
from repro.core import DEFAULT_SLO
from repro.engine.request import Request
from repro.models import get_model
from repro.workload import TraceRequest

from .outcomes import folded


def make_request(request_id=0, arrival=0.0, out=10, token_times=None, model="Qwen-7B"):
    trace = TraceRequest(
        request_id=request_id,
        model=model,
        arrival=arrival,
        input_tokens=100,
        output_tokens=out,
    )
    request = Request(trace=trace, spec=get_model("Qwen-7B"))
    if token_times:
        request.record_tokens(token_times)
    return request


def make_result(requests, end_time=100.0):
    return ServingResult(
        shard_stats=[folded(requests)],
        requests=requests,
        slo=DEFAULT_SLO,
        horizon=60.0,
        end_time=end_time,
    )


class TestTheorem31:
    def test_paper_numbers(self):
        # M=100, lambda=0.037, T=16.79 -> the paper reports E[m]=46.55;
        # exact arithmetic gives 46.27 (their lambda is rounded).
        value = expected_active_models(100, 0.037, 16.79)
        assert value == pytest.approx(46.55, abs=0.5)

    def test_pooling_bound_below_three(self):
        # 100 / 46.55 < 3 models per GPU (§3.1).
        bound = models_per_gpu_bound(100, 0.037, 16.79)
        assert 2.0 < bound < 3.0

    def test_zero_rate_means_zero_active(self):
        assert expected_active_models(100, 0.0, 16.79) == 0.0

    def test_simulation_matches_theorem(self):
        rng = np.random.default_rng(0)
        _, counts = simulate_active_models(
            100, 0.037, 16.79, horizon=4000.0, rng=rng
        )
        # Skip warm-up (the first T seconds under-count).
        steady = counts[50:]
        assert steady.mean() == pytest.approx(
            expected_active_models(100, 0.037, 16.79), rel=0.05
        )

    @settings(max_examples=20, deadline=None)
    @given(
        model_count=st.integers(min_value=1, max_value=50),
        rate=st.floats(min_value=0.001, max_value=0.5),
        service=st.floats(min_value=0.5, max_value=30.0),
    )
    def test_expectation_bounds(self, model_count, rate, service):
        value = expected_active_models(model_count, rate, service)
        assert 0 <= value <= model_count

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            expected_active_models(-1, 0.1, 1.0)


class TestAttainment:
    def test_perfect_run(self):
        request = make_request(out=3, token_times=[1.0, 1.1, 1.2])
        assert make_result([request]).slo_attainment == 1.0

    def test_missing_tokens_count_as_missed(self):
        # 10 expected, only 2 generated (on time): attainment 0.2.
        request = make_request(out=10, token_times=[1.0, 1.05])
        assert make_result([request]).slo_attainment == pytest.approx(0.2)

    def test_late_tokens_counted(self):
        request = make_request(out=2, token_times=[50.0, 50.1])  # deadline 10.0
        assert make_result([request]).slo_attainment == 0.0

    def test_empty_result(self):
        assert make_result([]).slo_attainment == 1.0

    def test_per_request_attainment_shape(self):
        requests = [
            make_request(0, out=2, token_times=[1.0, 1.1]),
            make_request(1, out=2, token_times=[50.0, 50.1]),
        ]
        values = make_result(requests).per_request_attainment()
        assert values.tolist() == [1.0, 0.0]


class TestTtft:
    def test_values(self):
        request = make_request(arrival=5.0, out=2, token_times=[7.5, 7.6])
        assert make_result([request]).ttfts()[0] == pytest.approx(2.5)

    def test_unserved_is_inf(self):
        request = make_request(out=2)
        assert np.isinf(make_result([request]).ttfts()[0])


class TestGoodputFrontier:
    def test_finds_largest_qualifying(self):
        points = [(10, 0.99), (20, 0.95), (30, 0.91), (40, 0.70)]
        assert goodput_frontier(points) == 30

    def test_none_when_all_below(self):
        assert goodput_frontier([(10, 0.5)]) is None

    def test_custom_threshold(self):
        points = [(10, 0.8), (20, 0.6)]
        assert goodput_frontier(points, threshold=0.75) == 10


class TestReporting:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 0.123]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_cdf_has_percentiles(self):
        text = format_cdf(np.arange(100.0), "lat")
        assert "P50=" in text and "P100=" in text

    def test_format_series(self):
        text = format_series([1, 2], [0.5, 0.9], "x", "y")
        assert "x" in text and "0.9" in text

    def test_percentiles(self):
        values = np.arange(101.0)
        result = percentiles(values)
        assert result["p50"] == pytest.approx(50.0)
        assert result["p99"] == pytest.approx(99.0)

    def test_percentiles_empty(self):
        result = percentiles([])
        assert np.isnan(result["p50"])
