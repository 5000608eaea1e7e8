"""Conformance suite for the policy layer (``repro.policy``).

Every registered bundle must drive its serving topology end to end and
preserve the accounting identity ``finished + failed + rejected ==
submitted``; the registry must resolve names, defaults and tunables
overrides; and the stock :class:`~repro.policy.WeightedRoundPolicy` must
obey the Eq. 2-3 invariants over the shared quota parameter space.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_SLO,
    AegaeonConfig,
    SessionCoordinator,
    SystemSpec,
    build_system,
)
from repro.fleet import FleetConfig, build_fleet
from repro.policy import (
    AdmissionPolicy,
    CostConstrainedRouter,
    DecodeTurnPolicy,
    PlacementPolicy,
    PolicyBundle,
    ScalingPolicy,
    Tunables,
    WeightedRoundPolicy,
    available_bundles,
    compute_quotas,
    estimate_round_attainment,
    get_bundle,
    resolve_bundle,
)
from repro.sim import Environment

from .strategies import step_times, switch_costs
from .test_serving_api import small_config, small_trace
from .test_workload_agentic import small_stream

EXPECTED_BUNDLES = {
    "aegaeon",
    "serverless-llm",
    "serverless-llm+",
    "muxserve",
    "unified-prefill-first",
    "unified-decode-first",
    "aegaeon-slo-admission",
    "muxserve-cost-placement",
    "aegaeon-cost-router",
}


class TestRegistry:
    def test_expected_bundles_registered(self):
        assert EXPECTED_BUNDLES <= set(available_bundles())

    def test_unknown_bundle_raises(self):
        with pytest.raises(ValueError, match="unknown policy bundle"):
            get_bundle("nope")

    def test_lookup_normalizes_case(self):
        assert get_bundle(" Aegaeon ") is get_bundle("aegaeon")

    def test_resolve_default_and_passthrough(self):
        default = resolve_bundle(None, "aegaeon")
        assert default is get_bundle("aegaeon")
        assert resolve_bundle(default, "muxserve") is default
        assert resolve_bundle("muxserve", "aegaeon") is get_bundle("muxserve")

    def test_with_tunables_rebuilds_stock_turn_policy(self):
        tuned = Tunables(qmax=2.5)
        bundle = get_bundle("aegaeon").with_tunables(tuned)
        assert bundle.tunables.qmax == 2.5
        # The stock turn policy is rebuilt so quota math sees the new cap.
        assert bundle.decode_turn.qmax == 2.5
        # The registered bundle itself is untouched.
        assert get_bundle("aegaeon").decode_turn.qmax == 4.0

    def test_with_tunables_preserves_custom_turn_policy(self):
        class CustomTurns(WeightedRoundPolicy):
            pass

        custom = CustomTurns()
        bundle = dataclasses.replace(get_bundle("aegaeon"), decode_turn=custom)
        swapped = bundle.with_tunables(Tunables(qmax=1.5))
        assert swapped.decode_turn is custom


class TestBundleShape:
    @pytest.mark.parametrize("name", available_bundles())
    def test_every_decision_point_filled(self, name):
        bundle = get_bundle(name)
        assert isinstance(bundle, PolicyBundle)
        assert bundle.name == name
        assert bundle.description
        assert isinstance(bundle.admission, AdmissionPolicy)
        # Dispatch policies implement only the entry points their system
        # uses: disaggregated pools route per phase, single pools route
        # whole requests.
        if bundle.system == "aegaeon":
            assert callable(bundle.dispatch.place_prefill)
            assert callable(bundle.dispatch.place_decode)
        else:
            assert callable(bundle.dispatch.place)
        assert isinstance(bundle.decode_turn, DecodeTurnPolicy)
        assert isinstance(bundle.scaling, ScalingPolicy)
        assert isinstance(bundle.placement, PlacementPolicy)

    @pytest.mark.parametrize("name", available_bundles())
    def test_system_is_buildable(self, name):
        bundle = get_bundle(name)
        system = build_system(
            SystemSpec(
                system=bundle.system,
                config=small_config(bundle.system),
                policies=name,
            ),
            Environment(),
        )
        assert system.policies is get_bundle(name)


class TestBundleConformance:
    """Every bundle serves a trace and accounts for every request."""

    @pytest.mark.parametrize("name", available_bundles())
    def test_accounting_identity(self, name):
        bundle = get_bundle(name)
        env = Environment()
        system = build_system(
            SystemSpec(
                system=bundle.system,
                config=small_config(bundle.system),
                policies=name,
            ),
            env,
        )
        trace = small_trace()
        result = system.serve(trace)

        registry = system.registry
        assert registry.submitted == len(trace)
        assert (
            registry.finished + registry.failed + registry.rejected
            == registry.submitted
        )
        assert system.accounted == len(trace.requests)
        assert len(result.requests) == len(trace)
        # A bundle may shed (slo-admission) or refuse unplaced models
        # (muxserve), but it must still serve the bulk of a light trace.
        assert registry.finished > 0


class TestCostRouter:
    """The ECCOS-style cost-constrained router bundle.

    Beyond the generic conformance above (which it passes by no-op'ing
    on variant-less market traffic), the router's own contract is pinned
    here: on agentic traffic it actually downgrades easy stages, and the
    realized per-session spend never exceeds the configured budget — for
    the default budget and for any budget hypothesis draws.
    """

    @staticmethod
    def routed_replay(bundle, seed=17):
        """One coordinated agentic replay under ``bundle`` (name or object)."""
        stream = small_stream(seed=seed, rate=1.5, horizon=12.0)
        spec = SystemSpec(
            config=AegaeonConfig(
                prefill_instances=1, decode_instances=3, cluster="h800-quad"
            ),
            policies=bundle,
        )
        fleet = build_fleet(FleetConfig(shards=1, spec=spec))
        coordinator = SessionCoordinator(fleet.env, stream.spec_of)
        fleet.attach_sessions(coordinator)
        fleet.run(coordinator.wrap_stream(stream))
        return fleet.shards[0].system, coordinator

    def test_router_downgrades_on_agentic_traffic(self):
        system, coordinator = self.routed_replay("aegaeon-cost-router")
        counts = CostConstrainedRouter.counts_of(system)
        assert counts["downgraded"] > 0, "no easy stage rode the small variant"
        spend = CostConstrainedRouter.spend_of(system)
        budget = system.policies.tunables.router_session_budget_usd
        assert spend and max(spend.values()) <= budget + 1e-12

    def test_router_is_inert_on_plain_traffic(self):
        """Variant-less requests pass through untouched (spend ledger empty)."""
        bundle = get_bundle("aegaeon-cost-router")
        env = Environment()
        system = build_system(
            SystemSpec(
                system=bundle.system,
                config=small_config(bundle.system),
                policies=bundle.name,
            ),
            env,
        )
        system.serve(small_trace())
        assert system.registry.finished > 0
        assert not CostConstrainedRouter.spend_of(system)

    @settings(max_examples=8, deadline=None)
    @given(budget=st.floats(min_value=2e-5, max_value=2e-3))
    def test_spend_never_exceeds_any_budget(self, budget):
        bundle = get_bundle("aegaeon-cost-router").with_tunables(
            Tunables(router_session_budget_usd=budget)
        )
        system, coordinator = self.routed_replay(bundle)
        spend = CostConstrainedRouter.spend_of(system)
        assert all(value <= budget + 1e-12 for value in spend.values())
        # Budget shedding is a terminal rejection, never lost accounting.
        s = coordinator.stats
        assert s.stages_submitted == (
            s.stages_finished + s.stages_failed + s.stages_rejected
        )
        counts = CostConstrainedRouter.counts_of(system)
        assert counts["shed"] == s.stages_rejected


class TestWeightedRoundProperties:
    """Eq. 2-3 invariants, via the policy seam rather than the functions."""

    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_quotas_bounded_by_qmax(self, times, cost):
        policy = WeightedRoundPolicy()
        quotas = policy.quotas(list(range(len(times))), times, cost, DEFAULT_SLO)
        assert len(quotas) == len(times)
        assert all(0.0 <= quota <= policy.qmax for quota in quotas)

    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_attainment_is_a_probability(self, times, cost):
        attainment = WeightedRoundPolicy().attainment(times, cost, DEFAULT_SLO)
        assert 0.0 < attainment <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(times=step_times)
    def test_zero_switch_cost_costs_nothing(self, times):
        policy = WeightedRoundPolicy()
        assert policy.attainment(times, 0.0, DEFAULT_SLO) == 1.0
        quotas = policy.quotas(list(range(len(times))), times, 0.0, DEFAULT_SLO)
        assert quotas == [policy.qmax] * len(times)

    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_policy_matches_reference_functions(self, times, cost):
        """The seam adds no math: stock policy == module functions."""
        tuned = Tunables(qmax=2.5)
        policy = WeightedRoundPolicy(tuned)
        batches = list(range(len(times)))
        assert policy.quotas(batches, times, cost, DEFAULT_SLO) == compute_quotas(
            batches, times, cost, DEFAULT_SLO,
            qmax=tuned.qmax, alpha_floor=tuned.alpha_floor,
        )
        assert policy.attainment(times, cost, DEFAULT_SLO) == (
            estimate_round_attainment(
                times, cost, DEFAULT_SLO,
                qmax=tuned.qmax, alpha_floor=tuned.alpha_floor,
            )
        )

    @settings(max_examples=100, deadline=None)
    @given(times=step_times, cost=switch_costs)
    def test_tighter_qmax_never_grants_more_time(self, times, cost):
        """Shrinking the quota cap shrinks (or keeps) every turn."""
        batches = list(range(len(times)))
        loose = WeightedRoundPolicy(Tunables(qmax=4.0))
        tight = WeightedRoundPolicy(Tunables(qmax=2.0))
        for small, large in zip(
            tight.quotas(batches, times, cost, DEFAULT_SLO),
            loose.quotas(batches, times, cost, DEFAULT_SLO),
        ):
            assert small <= large + 1e-9
