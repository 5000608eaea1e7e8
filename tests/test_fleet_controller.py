"""The live fleet controller: determinism, accounting, spill bounds, chaos.

Four contracts pin the control loop down:

* **Byte-reproducibility** — a controller-enabled replay is a pure
  function of ``(workload seed, fleet config)``: same seed, same bytes
  (and the digest matches the committed golden, so *any* behavioral
  drift in the controller is a reviewed change).
* **Conservation** — spillover moves rejections between shards but
  never invents or loses a request: per shard
  ``finished + failed + rejected + spilled == submissions``, fleet-wide
  ``rollup.total.requests == pump submissions + spills``.
* **Bounded hops** — no request is ever re-submitted more than
  ``max_spill_hops`` times (hypothesis-checked on the ledger, then
  end-to-end).
* **Chaos** — killing a shard's only prefill instance mid-run turns
  that shard into a pure rejector; with a forecast controller the fleet
  routes around it and every invariant stays green.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, InstanceFailure
from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import (
    ControllerConfig,
    FleetConfig,
    FleetController,
    ModelForecast,
    SpillLedger,
    build_fleet,
)
from repro.policy import (
    ForecastFleetControl,
    StaticFleetControl,
    available_fleet_policies,
    get_fleet_policy,
    register_fleet_policy,
)
from repro.sim import Environment
from repro.workload import market_stream

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fleet_controller_digest.json")


def small_spec(**overrides):
    defaults = dict(prefill_instances=1, decode_instances=3, cluster="h800-quad")
    defaults.update(overrides)
    return SystemSpec(
        config=AegaeonConfig(**defaults), policies="aegaeon-slo-admission"
    )


def controller_fleet(
    policy="forecast",
    *,
    shards=3,
    skew=True,
    seed=2025,
    kill_prefill0=False,
    kernel=Environment,
    **ctrl,
):
    """A controller-enabled fleet over a load-skewed market stream.

    ``kill_prefill0=True`` arms an :class:`InstanceFailure` against
    shard 0's only prefill instance at t=10: from then on that shard can
    only reject, so every later arrival routed to it must spill.
    """
    config = FleetConfig(
        shards=shards,
        spec=small_spec(),
        controller=ControllerConfig(policy=policy, **ctrl),
    )
    fleet = build_fleet(config, env=kernel())
    stream = market_stream(24, 120.0, seed=seed, total_rate=10.0)
    if skew:
        # Hot-spot the whole catalog onto shard 0: the worst case the
        # controller exists to fix.
        for model in stream.models:
            fleet.partitioner.pin(model.name, 0)
    if kill_prefill0:
        fleet.shards[0].system.attach_faults(
            FaultPlan.of(InstanceFailure(at=10.0, instance="prefill0"))
        )
    return fleet, stream


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        digests = []
        for _ in range(2):
            fleet, stream = controller_fleet()
            digests.append(fleet.run(stream).digest())
        assert digests[0] == digests[1]

    def test_digest_matches_golden(self):
        # The pinned scenario includes a mid-run prefill kill so the
        # golden exercises migration AND spillover on one digest.
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        fleet, stream = controller_fleet(kill_prefill0=True)
        result = fleet.run(stream)
        assert result.digest() == golden["digest"], (
            "controller-enabled replay drifted from the committed golden; "
            "if the change is intentional, regenerate "
            "tests/golden/fleet_controller_digest.json"
        )
        assert result.controller["spills"] == golden["spills"]
        assert result.controller["migrations"] == golden["migrations"]

    def test_different_seeds_differ(self):
        fleet_a, stream_a = controller_fleet(seed=2025)
        fleet_b, stream_b = controller_fleet(seed=2026)
        assert fleet_a.run(stream_a).digest() != fleet_b.run(stream_b).digest()

    def test_static_controller_leaves_data_path_untouched(self):
        """An observe-only controller must not perturb a single byte of
        the rollup relative to running without one."""
        baseline = FleetConfig(shards=3, spec=small_spec())
        fleet_none = build_fleet(baseline)
        fleet_static = build_fleet(
            FleetConfig(
                shards=3,
                spec=small_spec(),
                controller=ControllerConfig(policy="static"),
            )
        )
        results = []
        for fleet in (fleet_none, fleet_static):
            stream = market_stream(24, 120.0, seed=2025, total_rate=10.0)
            results.append(fleet.run(stream))
        assert results[0].digest() == results[1].digest()


class TestConservation:
    @pytest.fixture(autouse=True)
    def _invariants(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")

    def test_accounting_conserved_under_spillover(self):
        fleet, stream = controller_fleet(kill_prefill0=True)
        result = fleet.run(stream)
        total = result.rollup.total
        assert result.controller["spills"] > 0, "scenario produced no spills"
        # Per shard: every submission this shard saw (pump + respills)
        # got exactly one disposition fold.
        for shard in fleet.shards:
            stats = shard.stats
            assert (
                stats.finished + stats.failed + stats.rejected + stats.spilled
                == shard.system.proxy.submitted
            )
        # Fleet-wide: folds == pump submissions + spill re-submissions.
        assert total.requests == result.submitted + total.spilled
        # And nothing was silently left in flight.
        assert sum(s.system.registry.in_flight for s in fleet.shards) == 0

    def test_migration_conserves_accounting(self):
        fleet, stream = controller_fleet(
            policy=ForecastFleetControl(max_moves_per_tick=4)
        )
        result = fleet.run(stream)
        assert result.controller["migrations"] > 0, "scenario never migrated"
        total = result.rollup.total
        assert total.migrations_out == total.migrations_in
        assert total.requests == result.submitted + total.spilled


class TestSpillBounds:
    @given(
        max_hops=st.integers(min_value=0, max_value=4),
        events=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.booleans()),
            max_size=200,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_ledger_never_exceeds_hop_bound(self, max_hops, events):
        """Drive the ledger with an arbitrary interleaving of spill
        attempts and terminal settlements: the per-request hop count can
        never pass ``max_hops``, and ``can_spill`` goes False exactly at
        the bound."""
        ledger = SpillLedger(max_hops)
        hops = {}
        for request_id, settle in events:
            if settle:
                ledger.settle(request_id)
                hops.pop(request_id, None)
            elif ledger.can_spill(request_id):
                ledger.record_hop(request_id)
                hops[request_id] = hops.get(request_id, 0) + 1
            else:
                assert hops.get(request_id, 0) == max_hops
            assert hops.get(request_id, 0) <= max_hops

    def test_zero_hops_disables_spillover(self):
        fleet, stream = controller_fleet(kill_prefill0=True, max_spill_hops=0)
        result = fleet.run(stream)
        assert result.controller["spills"] == 0
        assert result.rollup.total.spilled == 0

    def test_end_to_end_hop_accounting(self):
        fleet, stream = controller_fleet(kill_prefill0=True, max_spill_hops=1)
        result = fleet.run(stream)
        # Whatever spilled did so within the bound, and the ledger holds
        # no leaked entries once everything drained.
        assert len(fleet.controller.ledger) == 0
        assert result.rollup.total.spilled == result.controller["spills"]


class TestChaos:
    @pytest.fixture(autouse=True)
    def _invariants(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")

    def test_dead_shard_spills_to_healthy_ones(self):
        """Kill shard 0's only prefill instance mid-run: its admission
        pressure goes infinite, every later arrival is rejected, and the
        forecast controller re-routes them — invariants stay green on
        every shard."""
        fleet, stream = controller_fleet(kill_prefill0=True)
        result = fleet.run(stream)
        dead = fleet.shards[0].stats
        assert dead.spilled > 0, "dead shard never spilled"
        assert dead.finished + dead.failed + dead.rejected + dead.spilled == (
            fleet.shards[0].system.proxy.submitted
        )
        # The spilled work really landed somewhere healthy.
        assert sum(s.stats.finished for s in fleet.shards[1:]) > 0
        assert result.rollup.total.requests == result.submitted + result.rollup.total.spilled

    def test_chaos_run_is_repeatable(self):
        digests = []
        for _ in range(2):
            fleet, stream = controller_fleet(kill_prefill0=True)
            digests.append(fleet.run(stream).digest())
        assert digests[0] == digests[1]


class TestScalingHints:
    def test_hints_reach_the_scaling_policy_seam(self):
        hints = []

        class RecordingScaling:
            """Stock token-level scaling plus the optional fleet hook."""

            def should_switch(self, engine, spec):
                return engine.current_model != spec.name

            def round_switch_cost(self, engine, batches):
                return 0.0

            def order_queue(self, waiting, engine):
                return None

            def observe_fleet_hint(self, system, hint):
                hints.append((system, hint))

        import dataclasses

        fleet, stream = controller_fleet()
        recorder = RecordingScaling()
        for shard in fleet.shards:
            shard.system.policies = dataclasses.replace(
                shard.system.policies, scaling=recorder
            )
        fleet.run(stream)
        assert hints, "no scaling hints were delivered"
        hinted_systems = {id(system) for system, _ in hints}
        assert len(hinted_systems) == len(fleet.shards)
        for shard in fleet.shards:
            assert isinstance(shard.system.scaling_hint, float)

    def test_hint_stored_on_system_not_policy(self):
        fleet, stream = controller_fleet()
        fleet.run(stream)
        hints = [shard.system.scaling_hint for shard in fleet.shards]
        assert all(isinstance(h, float) for h in hints)
        # The skewed scenario must produce asymmetric hints.
        assert max(hints) != min(hints)


class TestPolicyRegistry:
    def test_builtin_policies_registered(self):
        assert {"static", "forecast"} <= set(available_fleet_policies())
        assert isinstance(get_fleet_policy("static"), StaticFleetControl)
        assert isinstance(get_fleet_policy("forecast"), ForecastFleetControl)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown fleet control policy"):
            get_fleet_policy("nope")

    def test_custom_policy_round_trips(self):
        register_fleet_policy("test-noop", StaticFleetControl)
        try:
            config = ControllerConfig(policy="test-noop")
            assert isinstance(config.resolve_policy(), StaticFleetControl)
        finally:
            from repro.policy import fleet_control

            fleet_control._FLEET_POLICIES.pop("test-noop", None)

    def test_policy_object_passes_through(self):
        policy = ForecastFleetControl(tolerance=0.5)
        assert ControllerConfig(policy=policy).resolve_policy() is policy


class TestForecasts:
    def test_ewma_converges_to_constant_rate(self):
        forecast = ModelForecast()
        for _ in range(50):
            forecast.update(4.0, alpha=0.3)
        assert forecast.rate == pytest.approx(4.0, rel=1e-6)
        assert forecast.predicted == pytest.approx(4.0, rel=1e-4)

    def test_prediction_clamped_at_zero(self):
        forecast = ModelForecast()
        forecast.update(10.0, alpha=1.0)
        forecast.update(0.0, alpha=1.0)
        assert forecast.predicted == 0.0

    def test_controller_tracks_arrivals(self):
        fleet, stream = controller_fleet()
        fleet.run(stream)
        controller = fleet.controller
        assert controller.ticks > 0
        assert controller.forecasts, "no models were forecast"
        assert set(controller.forecasts) <= {m.name for m in stream.models}


class TestControllerConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ControllerConfig(max_spill_hops=-1)
