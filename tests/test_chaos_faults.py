"""Chaos suite: seeded fault plans against full serving runs.

Every test here drives a real end-to-end serve with the runtime
:class:`~repro.chaos.InvariantChecker` attached — ``serve`` raises if
any mid-run check ever failed, so a green test certifies the system
*provably preserved* KV conservation, token monotonicity, dead-instance
exclusion, and SLO accounting under the injected faults, not merely
that it didn't crash.
"""

import pytest
from hypothesis import given, settings

from repro.chaos import (
    FaultPlan,
    FetchFailure,
    InstanceFailure,
    LatencySpike,
    LinkThrottle,
    TransferStall,
)
from repro.core import AegaeonConfig, SystemSpec, build_system
from repro.engine import Phase, Request
from repro.memory import SlabAllocator
from repro.models import get_model, kv_shape, market_mix
from repro.sim import Environment
from repro.transfer import RequestKv
from repro.workload import sharegpt, materialize_trace
from repro.workload import TraceRequest

from .strategies import MiB, fault_plans


def run_chaos(
    plan,
    *,
    seed=7,
    models=4,
    rate=0.15,
    horizon=40.0,
    prefill=1,
    decode=3,
):
    """One faulted Aegaeon serve with invariants on; returns the system
    and its :class:`~repro.analysis.metrics.ServingResult`."""
    env = Environment()
    system = build_system(
        SystemSpec(
            config=AegaeonConfig(
                prefill_instances=prefill,
                decode_instances=decode,
                cluster="h800-quad",
            ),
            faults=plan,
            invariants=True,
        ),
        env,
    )
    trace = materialize_trace(
        market_mix(models), [rate] * models, sharegpt(), horizon=horizon, seed=seed
    )
    # warm=False so checkpoint fetches actually hit the (disruptable)
    # remote registry path.
    result = system.serve(trace, warm=False)
    return system, result


def assert_accounted(system, result):
    """Every submitted request ends in exactly one terminal ledger."""
    registry = system.registry
    submitted = registry.submitted
    assert submitted == len(result.requests)
    assert registry.finished + registry.failed + registry.rejected == submitted
    assert (
        len(system.finished) + len(system.failed) + len(system.rejected)
        == submitted
    )


class TestAcceptanceScenario:
    """The issue's benchmark: GPU loss + 2 transfer stalls + 1 failed
    fetch over a 4-model market-mix trace."""

    PLAN = FaultPlan.of(
        FetchFailure(at=2.0, count=1, wasted=0.2),
        TransferStall(at=8.0, direction="in", duration=0.6),
        InstanceFailure(at=12.0, instance="decode1"),
        TransferStall(at=18.0, direction="out", duration=0.6),
    )

    def test_completes_with_zero_violations(self):
        system, result = run_chaos(self.PLAN)
        # serve() would have raised on any violation; double-check the
        # checker actually ran and the ledger closed.
        checker = system.invariant_checker
        # One full sweep per delivered fault and one at collection; every
        # other check rides on the transition that could break it.
        assert checker.checks_run == len(system.fault_injector.delivered) + 1
        watched = [(system.proxy, "admit"), (system, "fail_instance")]
        for engine in system.engines():
            watched += [
                (engine.gpu_kv_cache, op) for op in ("alloc", "grow", "free")
            ] + [
                (engine.kv, op)
                for op in ("alloc_gpu", "free_gpu", "swap_out", "swap_in",
                           "abort_request", "_release_source")
            ] + [(engine.kv.move_list, op) for op in ("add", "reclaim")]
        assert all(op in vars(owner) for owner, op in watched)
        assert checker.violations == []
        assert_accounted(system, result)

    def test_all_faults_delivered(self):
        system, _ = run_chaos(self.PLAN)
        injector = system.fault_injector
        assert len(injector.delivered) == len(self.PLAN)
        assert injector.skipped == []
        assert system.instance_failures == 1

    def test_fetch_failure_retried_not_fatal(self):
        system, _ = run_chaos(self.PLAN)
        failures = sum(e.quick_loader.fetch_failures for e in system.engines())
        retries = sum(e.quick_loader.fetch_retries for e in system.engines())
        assert failures >= 1
        assert retries >= 1  # the retry path absorbed it
        assert system.registry.failed == 0


class TestSeededPlans:
    """Property: ANY seeded fault plan leaves the invariants intact and
    the request ledger balanced."""

    @settings(max_examples=8, deadline=None)
    @given(plan=fault_plans(horizon=20.0, instances=("decode1", "decode2")))
    def test_invariants_and_accounting_hold(self, plan):
        system, result = run_chaos(plan, horizon=20.0)
        assert system.invariant_checker.violations == []
        assert_accounted(system, result)
        # Everything the injector attempted is accounted for too.
        injector = system.fault_injector
        assert len(injector.delivered) + len(injector.skipped) == len(plan)

    def test_seeded_plan_is_reproducible(self):
        a = FaultPlan.seeded(42, horizon=30.0, count=6, instances=("decode1",))
        b = FaultPlan.seeded(42, horizon=30.0, count=6, instances=("decode1",))
        assert a == b
        assert len(a) == 6
        assert all(f.at <= g.at for f, g in zip(a, list(a)[1:]))

    def test_different_seeds_draw_different_plans(self):
        plans = {
            FaultPlan.seeded(s, horizon=30.0, count=4).faults for s in range(8)
        }
        assert len(plans) == 8


class TestInstanceLoss:
    def test_prefill_kill_requeues_orphans(self):
        # Heavy arrivals back the prefill queue up, so the kill strands
        # real work; timeout-and-requeue must land it on the survivor.
        plan = FaultPlan.of(InstanceFailure(at=4.0, instance="prefill0"))
        system, result = run_chaos(
            plan, seed=11, rate=1.0, horizon=20.0, prefill=2, decode=2
        )
        assert system.instance_failures == 1
        assert system.orphans_requeued > 0
        assert system.registry.finished == system.registry.submitted
        assert_accounted(system, result)

    def test_losing_whole_prefill_pool_sheds_load(self):
        # With the only prefill instance gone, later arrivals cannot be
        # served — they must be rejected at admission, not dropped.
        plan = FaultPlan.of(InstanceFailure(at=5.0, instance="prefill0"))
        system, result = run_chaos(plan, rate=0.5, horizon=20.0, prefill=1)
        assert system.registry.rejected > 0
        assert_accounted(system, result)

    def test_unknown_instance_is_skipped_not_fatal(self):
        plan = FaultPlan.of(InstanceFailure(at=5.0, instance="decode99"))
        system, result = run_chaos(plan, horizon=10.0)
        injector = system.fault_injector
        assert injector.delivered == []
        assert len(injector.skipped) == 1
        assert_accounted(system, result)


class TestDegradation:
    def test_throttle_and_spike_slow_but_complete(self):
        plan = FaultPlan.of(
            LinkThrottle(at=3.0, factor=6.0, duration=2.0),
            LatencySpike(at=6.0, factor=2.5, duration=2.0),
        )
        system, result = run_chaos(plan, horizon=20.0)
        assert system.registry.finished == system.registry.submitted
        # Spikes must fully unwind: every engine back at nominal speed.
        assert all(e.perf_factor == 1.0 for e in system.engines())

    def test_fetch_exhaustion_fails_requests_cleanly(self):
        # More failures than the retry budget: some requests must fail,
        # but failure stays requested-scoped — ledger balanced, zero
        # invariant violations.
        plan = FaultPlan.of(FetchFailure(at=0.0, count=50, wasted=0.3))
        system, result = run_chaos(plan, rate=0.3, horizon=15.0)
        assert system.registry.failed > 0
        assert_accounted(system, result)


class TestVetTerminal:
    def checked_system(self):
        env = Environment()
        system = build_system(
            SystemSpec(
                config=AegaeonConfig(
                    prefill_instances=1, decode_instances=1, cluster="h800-pair"
                ),
                invariants=True,
            ),
            env,
        )
        env.run(until=5.0)
        return system, system.invariant_checker

    def request(self, token_times):
        trace = TraceRequest(
            request_id=7, model="Qwen-7B", arrival=0.0, input_tokens=8,
            output_tokens=4,
        )
        request = Request(trace=trace, spec=get_model("Qwen-7B"))
        request.record_tokens(token_times)
        return request

    def test_decreasing_tail_is_flagged_at_disposal(self):
        # Runs committed outside an admitted request's watched list get
        # their I2 check when the request is disposed.
        system, checker = self.checked_system()
        request = self.request([1.0, 3.0, 2.0])
        request.phase = Phase.FAILED
        checker.vet_terminal(request)
        assert [v.invariant for v in checker.violations] == ["token-monotonicity"]
        assert "decrease" in checker.violations[0].detail

    def test_incomplete_finished_request_is_flagged(self):
        system, checker = self.checked_system()
        request = self.request([1.0, 2.0])
        request.phase = Phase.FINISHED
        checker.vet_terminal(request)
        assert [v.invariant for v in checker.violations] == ["slo-accounting"]


    def test_live_kv_extent_is_flagged_at_disposal(self):
        # I1 per request: a disposed request whose handle still holds a
        # live extent leaked those blocks; a freed one is clean.
        system, checker = self.checked_system()
        request = self.request([1.0, 2.0, 3.0, 4.0])
        request.phase = Phase.FINISHED
        request.finish_time = 4.0
        cache = SlabAllocator(region_bytes=64 * MiB, slab_bytes=16 * MiB)
        request.kv = RequestKv(request.request_id, kv_shape(request.spec), 12)
        request.kv.gpu_blocks = cache.alloc(
            request.kv.shape, request.kv.block_bytes, request.kv.block_count
        )
        checker.vet_terminal(request)
        assert [v.invariant for v in checker.violations] == ["kv-conservation"]
        assert "request 7" in checker.violations[0].detail
        cache.free(request.kv.gpu_blocks)
        checker.violations.clear()
        checker.vet_terminal(request)
        assert checker.violations == []


class TestAllocatorReconciliation:
    def test_corrupted_free_count_is_flagged(self):
        system, checker = TestVetTerminal().checked_system()
        allocator = SlabAllocator(region_bytes=64 * MiB, slab_bytes=4 * MiB)
        held = [allocator.alloc("a", 1 * MiB, 6), allocator.alloc("b", 2 * MiB, 1)]
        assert checker._check_allocator(allocator) == 7
        assert checker.violations == []
        allocator._shapes["a"].free_count += 1
        checker._check_allocator(allocator)
        assert [v.invariant for v in checker.violations] == ["kv-conservation"]
        assert "free_count" in checker.violations[0].detail
        assert held

    def test_corrupted_free_pool_is_flagged(self):
        # The free pool is counted through free_slab_count: released
        # slabs plus never-used ones must make up the unassigned rest.
        system, checker = TestVetTerminal().checked_system()
        allocator = SlabAllocator(region_bytes=64 * MiB, slab_bytes=4 * MiB)
        held = allocator.alloc("a", 1 * MiB, 6)
        allocator.free(allocator.alloc("b", 4 * MiB, 1))
        checker._check_allocator(allocator)
        assert checker.violations == []
        allocator._unused += 1
        checker._check_allocator(allocator)
        assert [v.invariant for v in checker.violations] == ["kv-conservation"]
        assert "free slabs" in checker.violations[0].detail
        assert held


class TestPlanValidation:
    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError):
            FetchFailure(at=-1.0)
        with pytest.raises(ValueError):
            TransferStall(at=1.0, direction="sideways")
        with pytest.raises(ValueError):
            LinkThrottle(at=1.0, factor=0.5)
        with pytest.raises(ValueError):
            InstanceFailure(at=1.0, instance="")
        with pytest.raises(ValueError):
            LatencySpike(at=1.0, factor=1.0)

    def test_of_sorts_by_time(self):
        plan = FaultPlan.of(
            LatencySpike(at=9.0), FetchFailure(at=1.0), TransferStall(at=4.0)
        )
        assert [f.at for f in plan] == [1.0, 4.0, 9.0]

    def test_kind_counts(self):
        plan = FaultPlan.of(FetchFailure(at=1.0), FetchFailure(at=2.0), LatencySpike(at=3.0))
        assert plan.kind_counts() == {"FetchFailure": 2, "LatencySpike": 1}
