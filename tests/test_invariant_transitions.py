"""Invariants are checked at the transition that breaks them.

The :class:`~repro.chaos.InvariantChecker` wraps the operations that can
break each invariant instead of polling, so:

* one planted bug per family is reported with ``Violation.time`` equal
  to the sim time of the breaking transition, including a KV leak that
  heals a millisecond later, between two ticks of a 0.5 s poll;
* the bracketed met-token recount equals the per-token count;
* the checker only observes: a run with ``invariants=True`` takes the
  same kernel steps and disposes of every request exactly as one
  without it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chaos import FaultPlan, InvariantViolation, InstanceFailure, LatencySpike
from repro.chaos.invariants import met_in_runs
from repro.core import AegaeonConfig, AegaeonServer, ServingSystemBase, SystemSpec
from repro.core import instance as instance_module
from repro.core.instance import DecodeRun
from repro.engine.request import Stretch, commit_stretch
from repro.fleet import FleetConfig, build_fleet
from repro.models import market_mix
from repro.policy import available_bundles, get_bundle
from repro.sim import Environment
from repro.transfer.kv_transfer import KvTransferManager
from repro.workload import market_stream, materialize_trace, sharegpt

from .outcomes import request_rows
from .test_serving_api import small_config

GRID_S = 0.5


def _trace(horizon=20.0):
    return materialize_trace(
        market_mix(4), [0.3] * 4, sharegpt(), horizon=horizon, seed=13
    )


def _checked_system():
    env = Environment()
    config = AegaeonConfig(
        prefill_instances=1, decode_instances=2, cluster="h800-quad"
    )
    system = SystemSpec(config=config, invariants=True).build(env)
    return env, system


def _serve_with_violations(system):
    with pytest.raises(InvariantViolation):
        system.serve(_trace())
    return system.invariant_checker.violations


def _off_grid(start: float, end: float) -> bool:
    """No point of a 0.5 s polling grid falls in ``[start, end]``."""
    return int(start // GRID_S) == int(end // GRID_S) and start % GRID_S > 0


# -- one planted bug per family ------------------------------------------------
class TestPlantedBugs:
    def test_leaked_swap_out_source_is_flagged_at_its_release(self, monkeypatch):
        heal = 1e-3
        leaks = []
        release = KvTransferManager._release_source

        def leaky_release(self, gpu_blocks):
            if leaks:
                return release(self, gpu_blocks)
            # The first completed swap-out drops its source from the
            # in-flight list but frees its blocks a millisecond late.
            leaks.append(self.env.now)
            self.inflight_sources.remove(gpu_blocks)
            self.env.timeout(heal).callbacks.append(
                lambda _: self.gpu_cache.free(gpu_blocks)
            )

        monkeypatch.setattr(KvTransferManager, "_release_source", leaky_release)
        env, system = _checked_system()
        violations = _serve_with_violations(system)
        (leaked_at,) = leaks
        assert violations[0].time == leaked_at
        assert "in-flight swap-out sources" in violations[0].detail
        assert {v.invariant for v in violations} == {"kv-conservation"}
        assert all(leaked_at <= v.time <= leaked_at + heal for v in violations)
        # Healed: the collection sweep finds nothing, and a polling grid
        # would have ticked on either side of the breach.
        assert system.invariant_checker.check_now() == []
        assert _off_grid(leaked_at, leaked_at + heal)

    def test_backwards_run_is_flagged_at_its_commit(self, monkeypatch):
        env, system = _checked_system()
        commits = []

        def backwards(requests, stretch):
            if not commits and all(r.generated_tokens for r in requests):
                # The first landed stretch starts one step before its
                # batch's latest token.
                commits.append(env.now)
                layout = stretch.tolist()
                layout[0] = max(r.last_token_time for r in requests) - 2 * layout[1]
                stretch = Stretch(layout)
            commit_stretch(requests, stretch)

        monkeypatch.setattr(instance_module, "commit_stretch", backwards)
        violations = _serve_with_violations(system)
        (committed_at,) = commits
        assert violations[0].time == committed_at
        assert violations[0].invariant == "token-monotonicity"
        assert "decrease" in violations[0].detail

    def test_dead_instance_left_dispatchable_is_flagged_at_the_failure(
        self, monkeypatch
    ):
        kill_at = 7.3
        fail_instance = AegaeonServer.fail_instance

        def leaves_it_listed(self, name):
            fail_instance(self, name)
            # The dead instance goes back on the decode dispatch list.
            for instance in self.decode_instances:
                if instance.name == name:
                    self.decode_scheduler.instances.append(instance)

        monkeypatch.setattr(AegaeonServer, "fail_instance", leaves_it_listed)
        env, system = _checked_system()

        def kill():
            yield env.timeout(kill_at)
            system.fail_instance("decode1")

        env.process(kill())
        violations = _serve_with_violations(system)
        assert violations[0].time == kill_at
        assert violations[0].invariant == "dead-instance"
        assert "dispatch list" in violations[0].detail
        assert _off_grid(kill_at, kill_at)

    def test_miscounted_disposal_is_flagged_at_that_disposal(self, monkeypatch):
        disposals = []
        note_finished = ServingSystemBase.note_finished

        def counts_twice(self, request):
            if not disposals:
                # The first finish is counted as two disposals.
                disposals.append(self.env.now)
                self.registry.finished += 1
            note_finished(self, request)

        monkeypatch.setattr(ServingSystemBase, "note_finished", counts_twice)
        env, system = _checked_system()
        violations = _serve_with_violations(system)
        assert violations[0].time == disposals[0]
        assert violations[0].invariant == "slo-accounting"
        assert "in flight" in violations[0].detail

    def test_double_disposal_is_flagged_at_the_second_disposal(self, monkeypatch):
        disposals = []
        note_finished = ServingSystemBase.note_finished

        def disposes_twice(self, request):
            note_finished(self, request)
            if not disposals:
                # The first finished request is disposed of once more.
                checker = self.invariant_checker
                disposals.append((self.env.now, len(checker.violations)))
                note_finished(self, request)

        monkeypatch.setattr(ServingSystemBase, "note_finished", disposes_twice)
        env, system = _checked_system()
        violations = _serve_with_violations(system)
        ((disposed_at, flagged_before),) = disposals
        assert flagged_before == 0
        assert violations[0].time == disposed_at
        assert violations[0].invariant == "slo-accounting"


# -- the bracketed met-token recount -----------------------------------------
def per_token_met(runs, base, tbt):
    """The reference: every token against its own deadline."""
    met = index = 0
    for start, step, n in runs:
        for i in range(1, n + 1):
            if start + i * step <= base + tbt * index:
                met += 1
            index += 1
    return met


# Eighths are exact in binary, so token times land exactly on deadlines.
_eighths = st.integers(-40, 400).map(lambda k: k / 8)
_floats = st.floats(-5.0, 60.0, allow_nan=False)
_steps = st.one_of(
    st.just(0.0),
    st.integers(-4, 8).map(lambda k: k / 8),
    st.floats(-1.0, 1.0, allow_nan=False),
)
_runs = st.lists(
    st.tuples(st.one_of(_eighths, _floats), _steps, st.integers(0, 24)),
    max_size=10,
)


class TestBracketedRecount:
    @settings(max_examples=400, deadline=None)
    @given(
        runs=_runs,
        base=st.one_of(_eighths, _floats),
        tbt=st.one_of(st.integers(0, 4).map(lambda k: k / 8), st.floats(-0.5, 1.0)),
    )
    @example(runs=[(2.0, 0.0, 3)], base=2.0, tbt=0.125)  # step 0 on a deadline
    @example(runs=[(1.0, 0.25, 4)], base=1.25, tbt=0.25)  # every token ties
    @example(runs=[(2.5, 0.0, 3)], base=2.25, tbt=0.125)  # first misses, last ties
    # A decreasing run: tokens at 2, 1, 0 against deadlines 0, 0.125,
    # 0.25.  Its last token meets the first deadline, yet only the last
    # token is met, so it must be counted token by token.
    @example(runs=[(3.0, -1.0, 3)], base=0.0, tbt=0.125)
    def test_equals_the_per_token_count(self, runs, base, tbt):
        assert met_in_runs(runs, base, tbt) == per_token_met(runs, base, tbt)


# -- the checker only observes -------------------------------------------------
def _bundle_serve(bundle, invariants):
    name = get_bundle(bundle).system
    spec = SystemSpec(
        system=name, config=small_config(name), policies=bundle,
        invariants=invariants,
    )
    env = Environment()
    system = spec.build(env)
    result = system.serve(_trace(horizon=30.0))
    assert (system.invariant_checker is not None) is invariants
    return (
        env.steps_executed,
        env.steps_inlined,
        result.digest(),
        request_rows(result.requests),
        json.dumps(result.summary(), sort_keys=True, default=str),
    )


def _faulted_fleet(invariants):
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad"
        ),
        faults=FaultPlan.seeded(
            7, horizon=40.0, count=4, instances=("decode1", "decode2")
        ),
        invariants=invariants,
    )
    env = Environment()
    fleet = build_fleet(
        FleetConfig(shards=3, spec=spec, retain_requests=True), env=env
    )
    result = fleet.run(market_stream(9, 40.0, seed=4, total_rate=3.0))
    for shard in fleet.shards:
        checker = shard.system.invariant_checker
        assert (checker is not None) is invariants
        if invariants:
            injector = shard.system.fault_injector
            assert checker.checks_run == len(injector.delivered) + 1
    rows = [request_rows(shard.system.proxy.requests) for shard in fleet.shards]
    return (
        env.steps_executed,
        env.steps_inlined,
        result.digest(),
        rows,
        json.dumps(result.summary(), sort_keys=True, default=str),
    )


def _split_serve(invariants):
    """An Aegaeon serve whose decode runs split: latency spikes on every
    engine and on one decode engine, and a decode instance failing
    mid-run, on top of the joins and KV arrivals of a busy trace."""
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=2, cluster="h800-quad"
        ),
        faults=FaultPlan.of(
            LatencySpike(at=6.0, engine="*", factor=3.0, duration=0.7),
            LatencySpike(at=13.3, engine="decode0", factor=1.5, duration=2.1),
            InstanceFailure(at=17.9, instance="decode1"),
        ),
        invariants=invariants,
    )
    env = Environment()
    system = spec.build(env)
    result = system.serve(_trace(horizon=30.0))
    return (
        env.steps_executed,
        env.steps_inlined,
        result.digest(),
        request_rows(result.requests),
        json.dumps(result.summary(), sort_keys=True, default=str),
    )


class TestObserveOnly:
    @pytest.fixture(autouse=True)
    def _no_suite_wide_checker(self, monkeypatch):
        monkeypatch.delenv("REPRO_INVARIANTS", raising=False)

    @pytest.mark.parametrize("bundle", sorted(available_bundles()))
    def test_serve_with_checker_equals_without(self, bundle):
        unchecked = _bundle_serve(bundle, False)
        assert unchecked[0] > 0 and unchecked[3]
        assert _bundle_serve(bundle, True) == unchecked

    def test_faulted_fleet_with_checker_equals_without(self):
        unchecked = _faulted_fleet(False)
        assert _faulted_fleet(True) == unchecked

    def test_serve_whose_runs_split_with_checker_equals_without(self, monkeypatch):
        # The checker settles live decode runs at each sweep; settling
        # lands what has ended and schedules nothing, so the step count
        # stays the same while runs split around it.
        cuts = []
        hand = DecodeRun.hand

        def counted(run, index):
            event = hand(run, index)
            cuts.append(event is not None)
            return event

        monkeypatch.setattr(DecodeRun, "hand", counted)
        unchecked = _split_serve(False)
        assert any(cuts)
        assert _split_serve(True) == unchecked
