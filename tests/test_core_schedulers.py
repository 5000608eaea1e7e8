"""Unit tests for the token-level schedulers (Algorithms 1 and 2)."""

from collections import deque

import pytest

from repro.core import (
    DEFAULT_SLO,
    DecodeBatch,
    BatchedDecodeScheduler,
    GroupedPrefillScheduler,
    PrefillGroup,
    SloSpec,
)
from repro.core.decode_sched import DecodeInstanceLike
from repro.engine.request import Request
from repro.models import get_model
from repro.policy import (
    DEFAULT_TUNABLES,
    compute_quotas,
    estimate_round_attainment,
    reorder_work_list,
)
from repro.workload import TraceRequest


def make_request(request_id=0, model="Qwen-7B", arrival=0.0, inp=128, out=64):
    spec = get_model(model.split("#")[0])
    trace = TraceRequest(
        request_id=request_id,
        model=model,
        arrival=arrival,
        input_tokens=inp,
        output_tokens=out,
    )
    return Request(trace=trace, spec=spec)


class FakePrefillInstance:
    """Deterministic stand-in for PrefillInstanceLike."""

    def __init__(self, load=0.0, current=None):
        self.groups = []
        self._load = load
        self._current = current
        self.kicks = 0

    def estimate_group_time(self, group, previous):
        # 1 second per queued request plus 1 second per model switch.
        switch = 0.0 if previous is not None and previous.name == group.spec.name else 1.0
        return len(group.requests) * 1.0 + switch + self._load

    def current_model(self):
        return self._current

    def kick(self):
        self.kicks += 1


class TestGroupedPrefillScheduler:
    def test_joins_existing_group(self):
        instances = [FakePrefillInstance(), FakePrefillInstance()]
        scheduler = GroupedPrefillScheduler(instances)
        first = scheduler.dispatch(make_request(0, "Qwen-7B"))
        second = scheduler.dispatch(make_request(1, "Qwen-7B"))
        assert first is second
        assert len(first.groups) == 1
        assert first.groups[0].accumulated == 2

    def test_new_model_opens_group_on_least_loaded(self):
        light = FakePrefillInstance(load=0.0)
        heavy = FakePrefillInstance(load=10.0)
        heavy.groups.append(_group("Qwen-7B", 3))
        scheduler = GroupedPrefillScheduler([heavy, light])
        chosen = scheduler.dispatch(make_request(0, "Yi-6B"))
        assert chosen is light

    def test_group_size_cap_spills_to_new_group(self):
        instance = FakePrefillInstance()
        scheduler = GroupedPrefillScheduler([instance], max_group_size=2)
        for request_id in range(3):
            scheduler.dispatch(make_request(request_id, "Qwen-7B"))
        assert len(instance.groups) == 2
        assert instance.groups[0].accumulated == 2
        assert instance.groups[1].accumulated == 1

    def test_accumulated_counts_do_not_decrease(self):
        # The Algorithm 1 line-6 check uses accumulative size, so a
        # group that executed requests still counts them.
        instance = FakePrefillInstance()
        scheduler = GroupedPrefillScheduler([instance], max_group_size=2)
        scheduler.dispatch(make_request(0, "Qwen-7B"))
        scheduler.dispatch(make_request(1, "Qwen-7B"))
        instance.groups[0].requests.popleft()  # simulated execution
        scheduler.dispatch(make_request(2, "Qwen-7B"))
        assert len(instance.groups) == 2  # did not rejoin the old group

    def test_kick_called_on_dispatch(self):
        instance = FakePrefillInstance()
        scheduler = GroupedPrefillScheduler([instance])
        scheduler.dispatch(make_request(0))
        assert instance.kicks == 1

    def test_default_max_group_size_is_paper_value(self):
        assert DEFAULT_TUNABLES.max_prefill_group == 8

    def test_load_includes_switches(self):
        instance = FakePrefillInstance(current=get_model("Qwen-7B"))
        instance.groups = [_group("Qwen-7B", 1), _group("Yi-6B", 1)]
        scheduler = GroupedPrefillScheduler([instance])
        # Group 1 same model (no switch) + group 2 (switch): 1 + 1 + 1.
        assert scheduler.estimate_load(instance) == pytest.approx(3.0)

    def test_no_instances_rejected(self):
        with pytest.raises(ValueError):
            GroupedPrefillScheduler([])


def _group(model, count):
    group = PrefillGroup(spec=get_model(model))
    for index in range(count):
        group.add(make_request(1000 + index, model))
    return group


class FakeDecodeInstance:
    def __init__(self, capacity=8):
        self.work_list = []
        self._capacity = capacity
        self.kicks = 0

    def batch_capacity(self, spec):
        return self._capacity

    def kick(self):
        self.kicks += 1


class TestBatchedDecodeScheduler:
    def test_joins_same_model_batch(self):
        instance = FakeDecodeInstance()
        scheduler = BatchedDecodeScheduler([instance])
        scheduler.dispatch(make_request(0, "Qwen-7B"))
        scheduler.dispatch(make_request(1, "Qwen-7B"))
        assert len(instance.work_list) == 1
        assert instance.work_list[0].size == 2

    def test_full_batch_spills(self):
        instance = FakeDecodeInstance(capacity=1)
        scheduler = BatchedDecodeScheduler([instance])
        scheduler.dispatch(make_request(0, "Qwen-7B"))
        scheduler.dispatch(make_request(1, "Qwen-7B"))
        assert len(instance.work_list) == 2

    def test_least_loaded_by_work_list_size(self):
        busy = FakeDecodeInstance()
        busy.work_list = [DecodeBatch(spec=get_model("Yi-6B"))] * 3
        idle = FakeDecodeInstance()
        scheduler = BatchedDecodeScheduler([busy, idle])
        scheduler.dispatch(make_request(0, "Qwen-7B"))
        assert len(idle.work_list) == 1

    def test_no_instances_rejected(self):
        with pytest.raises(ValueError):
            BatchedDecodeScheduler([])


class TestReorderWorkList:
    def test_groups_same_model_adjacent(self):
        a1 = DecodeBatch(spec=get_model("Qwen-7B"))
        b = DecodeBatch(spec=get_model("Yi-6B"))
        a2 = DecodeBatch(spec=get_model("Qwen-7B"))
        ordered = reorder_work_list([a1, b, a2])
        assert ordered == [a1, a2, b]

    def test_preserves_first_seen_order(self):
        batches = [
            DecodeBatch(spec=get_model(name))
            for name in ["Yi-6B", "Qwen-7B", "Yi-6B", "Llama-13B"]
        ]
        ordered = reorder_work_list(batches)
        assert [b.spec.name for b in ordered] == [
            "Yi-6B",
            "Yi-6B",
            "Qwen-7B",
            "Llama-13B",
        ]

    def test_empty(self):
        assert reorder_work_list([]) == []


class TestQuotaEquations:
    def _batches(self, count):
        return [DecodeBatch(spec=get_model("Qwen-7B")) for _ in range(count)]

    def test_paper_worked_example(self):
        # §4.3: three batches, d=0.1, t=0.025, c=3, QMAX=3 -> q_i = 3.
        slo = SloSpec(ttft=10.0, tbt=0.1)
        quotas = compute_quotas(
            self._batches(3), [0.025] * 3, total_switch_cost=3.0, slo=slo, qmax=3.0
        )
        assert quotas == pytest.approx([3.0, 3.0, 3.0])

    def test_paper_example_attainment_is_one(self):
        slo = SloSpec(ttft=10.0, tbt=0.1)
        attainment = estimate_round_attainment([0.025] * 3, 3.0, slo, qmax=3.0)
        assert attainment == pytest.approx(1.0)

    def test_zero_switch_cost_uses_qmax(self):
        quotas = compute_quotas(
            self._batches(2), [0.02, 0.02], total_switch_cost=0.0, slo=DEFAULT_SLO
        )
        assert quotas == [DEFAULT_TUNABLES.qmax, DEFAULT_TUNABLES.qmax]

    def test_single_batch_uses_qmax(self):
        quotas = compute_quotas(
            self._batches(1), [0.02], total_switch_cost=5.0, slo=DEFAULT_SLO
        )
        assert quotas == [DEFAULT_TUNABLES.qmax]

    def test_quotas_positive_and_capped(self):
        for batch_count in [2, 4, 8]:
            quotas = compute_quotas(
                self._batches(batch_count),
                [0.03] * batch_count,
                total_switch_cost=batch_count * 0.8,
                slo=DEFAULT_SLO,
            )
            assert all(0 < q <= DEFAULT_TUNABLES.qmax for q in quotas)

    def test_slower_batches_get_larger_quota(self):
        # n_i = d/t_i: slower steps (smaller n) earn more time per turn.
        quotas = compute_quotas(
            self._batches(2), [0.05, 0.01], total_switch_cost=2.0, slo=DEFAULT_SLO
        )
        assert quotas[0] > quotas[1]

    def test_alpha_floor_bounds_attainment_estimate(self):
        # With tiny switch cost the estimate caps at 1.0 (alpha >= 0.5).
        attainment = estimate_round_attainment([0.01] * 2, 0.01, DEFAULT_SLO)
        assert attainment == 1.0

    def test_overloaded_round_estimate_below_one(self):
        # Many slow batches with heavy switching: attainment < 1.
        slo = SloSpec(ttft=10.0, tbt=0.05)
        attainment = estimate_round_attainment([0.03] * 8, 8 * 1.5, slo)
        assert attainment < 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            compute_quotas(self._batches(2), [0.1], 1.0, DEFAULT_SLO)


class TestDecodeBatch:
    def test_context_tokens_sums_members(self):
        batch = DecodeBatch(spec=get_model("Qwen-7B"))
        batch.requests = [make_request(0, inp=100, out=50), make_request(1, inp=200, out=50)]
        batch.requests[0].record_tokens([1.0])  # one generated token
        assert batch.context_tokens == 101 + 200

    def test_has_room(self):
        batch = DecodeBatch(spec=get_model("Qwen-7B"), max_size=1)
        assert batch.has_room
        batch.requests.append(make_request(0))
        assert not batch.has_room
