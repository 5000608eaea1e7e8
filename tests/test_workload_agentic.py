"""The agentic DAG workload layer (``repro.workload.agentic``) end to end.

Four contracts pin the layer down:

* **Structure** — every generated :class:`SessionPlan` is acyclic by
  construction, connected, fan-out bounded, and carries positive stage
  token budgets (hypothesis, via the shared :func:`session_plans`
  strategy that delegates to the real generator).
* **Determinism** — a stream is a pure function of its config: same
  seed, same bytes, across re-iteration and fresh stream objects; the
  committed golden digest pins a full cost-routed replay, with and
  without ``REPRO_INVARIANTS=1`` armed.
* **Conservation** — per session, ``stages_submitted == finished +
  failed + rejected`` once the run drains, on a single pool and on a
  fleet serving an agentic/market merge through the pump.
* **Ordering** — a dependent stage is only ever submitted after *all*
  its parents finished (checked on the retained request ledger).
"""

import json
import os

import pytest
from hypothesis import given, settings

from repro.core import AegaeonConfig, SessionCoordinator, SystemSpec
from repro.engine import Phase
from repro.fleet import ControllerConfig, FleetConfig, build_fleet
from repro.workload import (
    AgenticConfig,
    SessionPlan,
    StagePlan,
    agent_variant_groups,
    agentic_stream,
    market_stream,
    merge_streams,
)

from .strategies import agentic_configs, session_plans, session_seeds

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "agentic_digest.json")

#: The strategy caps ``session_plans()`` draws under (see strategies.py).
STRATEGY_MAX_STAGES = 8
STRATEGY_MAX_FANOUT = 3


def small_stream(seed=7, rate=1.0, horizon=30.0, agents=2, **overrides):
    """A CI-sized agentic stream (a few dozen sessions)."""
    config = AgenticConfig(
        session_rate=rate, horizon=horizon, seed=seed, agents=agents, **overrides
    )
    return agentic_stream(config, groups=agent_variant_groups(agents))


def replay(stream, bundle="aegaeon", retain=False, env=None):
    """One coordinated replay on a one-shard fleet; returns (system,
    coordinator, result).  The pool is one 4-GPU node, the same shape
    as examples/agentic_replay.py."""
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad"
        ),
        policies=bundle,
    )
    fleet = build_fleet(
        FleetConfig(shards=1, spec=spec, retain_requests=retain), env=env
    )
    system = fleet.shards[0].system
    coordinator = SessionCoordinator(fleet.env, stream.spec_of, obs=system.obs)
    fleet.attach_sessions(coordinator)
    result = fleet.run(coordinator.wrap_stream(stream))
    return system, coordinator, result


class TestPlanStructure:
    """Structural invariants of every DAG the generator can produce."""

    @settings(max_examples=60, deadline=None)
    @given(plan=session_plans())
    def test_acyclic_connected_bounded(self, plan):
        assert isinstance(plan, SessionPlan)
        assert [s.index for s in plan.stages] == list(range(len(plan.stages)))
        for stage in plan.stages:
            # Acyclic: edges only point backwards.
            assert all(0 <= dep < stage.index for dep in stage.deps)
            assert len(set(stage.deps)) == len(stage.deps)
            # Connected: every non-root has at least one parent.
            assert stage.index == 0 or stage.deps
            # Positive token budgets, sane metadata.
            assert stage.input_tokens > 0 and stage.output_tokens > 0
            assert stage.think_time >= 0.0
            assert 0.0 <= stage.difficulty <= 1.0
            assert len(stage.variants) >= 2
            assert stage.model == stage.variants[-1]
        assert plan.max_fanout() <= STRATEGY_MAX_FANOUT
        assert len(plan.stages) <= STRATEGY_MAX_STAGES
        assert plan.roots() and plan.roots()[0].index == 0

    @settings(max_examples=60, deadline=None)
    @given(plan=session_plans())
    def test_request_ids_are_the_contiguous_block(self, plan):
        for stage in plan.stages:
            request = plan.request_for(stage, plan.arrival)
            assert request.request_id == plan.base_id + stage.index
            assert request.session == plan.session
            assert request.affinity == plan.affinity
            assert request.plan is plan

    def test_stage_validation_rejects_malformed_dags(self):
        ok = dict(index=1, model="m", input_tokens=8, output_tokens=8)
        with pytest.raises(ValueError, match="earlier stages"):
            StagePlan(deps=(1,), **ok)  # self-edge = a cycle
        with pytest.raises(ValueError, match="earlier stages"):
            StagePlan(deps=(2,), **ok)  # forward edge
        with pytest.raises(ValueError, match="duplicate"):
            StagePlan(deps=(0, 0), **ok)
        with pytest.raises(ValueError, match="positive"):
            StagePlan(index=0, model="m", input_tokens=0, output_tokens=8)
        with pytest.raises(ValueError, match="0..n-1"):
            SessionPlan(
                session=0, base_id=0, arrival=0.0,
                stages=(StagePlan(index=1, model="m", input_tokens=1, output_tokens=1),),
            )


class TestGeneratorDeterminism:
    def test_same_seed_is_byte_identical(self):
        stream = small_stream(seed=42)
        first = tuple(stream)
        assert first, "scenario produced no sessions"
        assert tuple(stream) == first  # re-iteration
        assert tuple(small_stream(seed=42)) == first  # fresh stream object

    def test_different_seeds_differ(self):
        assert tuple(small_stream(seed=1)) != tuple(small_stream(seed=2))

    @settings(max_examples=20, deadline=None)
    @given(config=agentic_configs(max_rate=2.0, max_horizon=20.0))
    def test_stream_contract_holds_for_any_config(self, config):
        stream = agentic_stream(config)
        roots = list(stream)
        assert list(stream) == roots  # re-iterable, byte for byte
        # Roots only, in arrival order.
        assert all(not request.deps for request in roots)
        arrivals = [request.arrival for request in roots]
        assert arrivals == sorted(arrivals)
        assert all(arrival < config.horizon for arrival in arrivals)
        # Contiguous, disjoint per-session id blocks from start_id.
        plans = {}
        for request in roots:
            plans.setdefault(request.plan.session, request.plan)
        next_id = config.start_id
        for session in sorted(plans):
            plan = plans[session]
            assert plan.base_id == next_id
            next_id += len(plan.stages)


class TestMergeStreams:
    def test_merge_orders_unions_and_stays_reiterable(self):
        market = market_stream(4, 20.0, seed=3, total_rate=2.0)
        agentic = small_stream(seed=5, horizon=20.0)
        merged = merge_streams(market, agentic)

        requests = list(merged)
        assert list(merged) == requests  # merge preserves re-iterability
        arrivals = [request.arrival for request in requests]
        assert arrivals == sorted(arrivals)
        # Disjoint id spaces: agentic ids start at the 1e6 floor.
        ids = [request.request_id for request in requests]
        assert len(set(ids)) == len(ids)
        assert len(requests) == len(list(market)) + len(list(agentic))
        # Model union and the widest horizon.
        names = {spec.name for spec in merged.models}
        assert {spec.name for spec in market.models} <= names
        assert {spec.name for spec in agentic.models} <= names
        assert merged.horizon == max(market.horizon, agentic.horizon)


def assert_conserved(system, coordinator, result):
    """The conservation identity every coordinated replay must close."""
    (stats,) = result.shard_stats
    s = coordinator.stats
    assert s.stages_submitted == (
        s.stages_finished + s.stages_failed + s.stages_rejected
    )
    assert s.sessions_started == s.sessions_completed + s.sessions_aborted
    assert coordinator.drained() and not coordinator._live
    assert stats.finished + stats.failed + stats.rejected == stats.requests
    assert stats.requests == system.registry.submitted == s.stages_submitted
    # Per-session rows total back to the aggregate ledger.
    rows = coordinator.per_session.values()
    assert sum(row["submitted"] for row in rows) == s.stages_submitted
    assert sum(row["finished"] for row in rows) == s.stages_finished
    for row in rows:
        assert row["completed"] == (row["finished"] == row["stages"])
        assert row["submitted"] <= row["stages"]


class TestReplayConservation:
    def test_single_pool_conservation(self):
        system, coordinator, result = replay(small_stream(seed=13))
        assert coordinator.stats.sessions_started > 0
        assert coordinator.stats.stages_finished > 0
        assert_conserved(system, coordinator, result)

    @settings(max_examples=8, deadline=None)
    @given(seed=session_seeds)
    def test_conservation_for_any_seed(self, seed):
        stream = small_stream(seed=seed, rate=1.5, horizon=10.0)
        system, coordinator, result = replay(stream)
        assert_conserved(system, coordinator, result)

    def test_stage_ordering_respects_dag_edges(self):
        system, coordinator, result = replay(small_stream(seed=21), retain=True)
        assert_conserved(system, coordinator, result)
        settled = system.proxy.requests
        by_id = {request.request_id: request for request in settled}
        finished = {
            request.request_id
            for request in settled
            if request.phase is Phase.FINISHED
        }
        non_roots = 0
        for request in settled:
            plan = request.trace.plan
            for dep in request.trace.deps:
                non_roots += 1
                parent = by_id[plan.base_id + dep]
                # Every parent finished (aborts prune downstream) and did
                # so no later than this stage was submitted.
                assert parent.request_id in finished
                assert parent.finish_time is not None
                assert request.trace.arrival >= parent.finish_time - 1e-9
                stage = plan.stages[request.trace.stage]
                assert request.trace.arrival >= (
                    parent.finish_time + stage.think_time - 1e-9
                ) or len(stage.deps) > 1
        assert non_roots > 0, "scenario produced no dependent stages"


class TestFleetMix:
    """Agentic sessions riding the pump next to market traffic."""

    def test_merged_fleet_conserves_with_controller(self):
        merged = merge_streams(
            market_stream(4, 20.0, seed=3, total_rate=2.0),
            small_stream(seed=5, horizon=20.0),
        )
        fleet = build_fleet(
            FleetConfig(
                shards=2,
                spec=SystemSpec(
                    config=AegaeonConfig(
                        prefill_instances=1, decode_instances=3,
                        cluster="h800-quad",
                    ),
                    policies="aegaeon",
                ),
                controller=ControllerConfig(policy="forecast"),
            )
        )
        coordinator = SessionCoordinator(fleet.env, merged.spec_of)
        fleet.attach_sessions(coordinator)
        result = fleet.run(coordinator.wrap_stream(merged))

        spills = result.controller["spills"]
        served = sum(stats.requests for stats in result.shard_stats)
        assert served == fleet.submitted + spills
        for stats in result.shard_stats:
            assert (
                stats.finished + stats.failed + stats.rejected + stats.spilled
                == stats.requests
            )
        # The session layer drained and its rollup rode along.
        s = coordinator.stats
        assert s.sessions_started > 0
        assert s.stages_submitted == (
            s.stages_finished + s.stages_failed + s.stages_rejected
        )
        assert coordinator.drained() and not coordinator._live
        assert result.sessions is not None
        assert result.sessions["live"] == 0
        assert result.sessions["stats"] == s.as_dict()
        assert result.summary()["sessions"]["stats"] == s.as_dict()


def golden_stream():
    """The pinned replay's DAG traffic."""
    return agentic_stream(
        AgenticConfig(session_rate=1.5, horizon=40.0, seed=11, agents=2),
        groups=agent_variant_groups(2),
    )


def golden_scenario():
    """The pinned replay: cost-routed DAG traffic on one pool."""
    system, coordinator, result = replay(
        golden_stream(), bundle="aegaeon-cost-router"
    )
    assert_conserved(system, coordinator, result)
    return result.digest()


class TestGoldenDigest:
    """Satellite: the committed same-seed digest golden."""

    def test_digest_matches_golden(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert golden_scenario() == golden["digest"], (
            "agentic cost-routed replay drifted from the committed golden; "
            "if the change is intentional, regenerate "
            "tests/golden/agentic_digest.json"
        )

    def test_invariants_armed_run_is_identical(self, monkeypatch):
        # REPRO_INVARIANTS=1 arms the runtime checker inside the build;
        # observation must not perturb a single byte of the digest.
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert golden_scenario() == golden["digest"]
