"""Property-based tests for the decode quota equations (Eqs. 2-3)."""

from hypothesis import given, settings, strategies as st

from repro.core import DecodeBatch, SloSpec
from repro.policy import (
    DEFAULT_TUNABLES,
    compute_quotas,
    estimate_round_attainment,
)
from repro.models import get_model

from .strategies import step_times, switch_costs


def batches(count):
    return [DecodeBatch(spec=get_model("Qwen-7B")) for _ in range(count)]


class TestQuotaProperties:
    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_quotas_positive_and_capped(self, times, cost):
        quotas = compute_quotas(
            batches(len(times)), times, cost, SloSpec(ttft=10.0, tbt=0.1)
        )
        assert all(0 < q <= DEFAULT_TUNABLES.qmax for q in quotas)

    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_slower_batches_never_get_less_time(self, times, cost):
        slo = SloSpec(ttft=10.0, tbt=0.1)
        quotas = compute_quotas(batches(len(times)), times, cost, slo)
        paired = sorted(zip(times, quotas))
        for (t1, q1), (t2, q2) in zip(paired, paired[1:]):
            if t2 > t1:
                assert q2 >= q1 - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_attainment_estimate_is_probability(self, times, cost):
        value = estimate_round_attainment(times, cost, SloSpec(ttft=10.0, tbt=0.1))
        assert 0.0 < value <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(times=step_times)
    def test_higher_cost_never_raises_attainment(self, times):
        slo = SloSpec(ttft=10.0, tbt=0.1)
        cheap = estimate_round_attainment(times, 0.5, slo)
        expensive = estimate_round_attainment(times, 5.0, slo)
        assert expensive <= cheap + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(times=step_times, cost=switch_costs, scale=st.floats(min_value=1.1, max_value=5.0))
    def test_looser_tbt_never_lowers_attainment(self, times, cost, scale):
        base = estimate_round_attainment(times, cost, SloSpec(ttft=10.0, tbt=0.05))
        loose = estimate_round_attainment(
            times, cost, SloSpec(ttft=10.0, tbt=0.05 * scale)
        )
        assert loose >= base - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_round_budget_respects_slack_when_feasible(self, times, cost):
        # When the scheduler predicts full attainment (1/alpha >= 1),
        # the buffered-output inequality must hold for the round: each
        # batch's earned slack covers the rest of the round.
        slo = SloSpec(ttft=10.0, tbt=0.1)
        attainment = estimate_round_attainment(times, cost, slo, qmax=1e9)
        if attainment < 1.0:
            return
        quotas = compute_quotas(batches(len(times)), times, cost, slo, qmax=1e9)
        round_time = sum(quotas) + cost
        for quota, step in zip(quotas, times):
            tokens = quota / step
            playback = tokens * slo.tbt
            assert playback >= round_time - quota - 1e-6 or playback >= round_time * 0.5
