"""Unit and regression tests for individual policies.

Covers the two new non-default policies (SLO-aware admission,
cost-per-token placement), the ``policy.*`` trace events they emit, the
``REPRO_POLICIES`` env surface, and the regression
that :meth:`fail_instance` mutates only the scheduler's own dispatch
view — never the server's pool lists or a caller's list.
"""

from types import SimpleNamespace

import pytest

from repro.core import (
    AegaeonConfig,
    RunSettings,
    SloSpec,
    SystemSpec,
    build_system,
)
from repro.core.decode_sched import BatchedDecodeScheduler
from repro.core.prefill_sched import GroupedPrefillScheduler
from repro.hardware import A10, H800
from repro.obs import ObsConfig, Tracer
from repro.policy import (
    MARKET_HOURLY_USD,
    CostAwarePlacement,
    MemoryConstrainedPlacement,
    SloAwareAdmission,
    get_bundle,
)
from repro.sim import Environment

from .test_serving_api import small_config, small_trace

GiB = 1024**3


def _model(name, weight_gib):
    return SimpleNamespace(name=name, weight_bytes=weight_gib * GiB)


def _stub_system(pressure, ttft=1.0, tracer=None):
    return SimpleNamespace(
        admission_pressure=lambda: pressure,
        slo=SloSpec(ttft=ttft, tbt=0.1),
        obs=SimpleNamespace(tracer=tracer),
    )


def _request(request_id=1, model="Qwen-7B"):
    return SimpleNamespace(request_id=request_id, model=model)


class TestSloAwareAdmission:
    def test_admits_under_budget(self):
        policy = SloAwareAdmission()
        assert policy.decide(_stub_system(pressure=0.5, ttft=1.0), _request()) is None

    def test_sheds_over_budget(self):
        policy = SloAwareAdmission()
        reason = policy.decide(_stub_system(pressure=2.0, ttft=1.0), _request())
        assert reason == "queue_pressure"

    def test_headroom_scales_the_budget(self):
        system = _stub_system(pressure=2.0, ttft=1.0)
        assert SloAwareAdmission(headroom=3.0).decide(system, _request()) is None
        with pytest.raises(ValueError, match="headroom"):
            SloAwareAdmission(headroom=0.0)

    def test_systems_without_estimator_admit(self):
        bare = SimpleNamespace(slo=SloSpec())
        assert SloAwareAdmission().decide(bare, _request()) is None

    def test_shed_emits_policy_admission_event(self):
        tracer = Tracer()
        system = _stub_system(pressure=2.0, ttft=1.0, tracer=tracer)
        SloAwareAdmission().decide(system, _request(request_id=7))
        events = [i for i in tracer.instants if i.name == "policy.admission"]
        assert len(events) == 1
        assert events[0].cat == "policy"
        assert events[0].args["decision"] == "shed"
        assert events[0].args["request_id"] == 7
        assert events[0].args["pressure"] == 2.0

    def test_integration_sheds_before_pools_empty_reject(self):
        """Under a strict TTFT the slo-admission bundle sheds at the
        proxy while the default bundle still admits everything."""
        slo = SloSpec(ttft=0.05, tbt=0.1)
        rejected = {}
        for name in ("aegaeon", "aegaeon-slo-admission"):
            env = Environment()
            config = AegaeonConfig(
                prefill_instances=1,
                decode_instances=1,
                cluster="h800-pair",
                slo=slo,
                obs=ObsConfig.full(),
            )
            system = build_system(
                SystemSpec(config=config, policies=name), env
            )
            trace = small_trace(n_models=4, rps=0.3, horizon=40.0)
            system.serve(trace)
            registry = system.registry
            assert (
                registry.finished + registry.failed + registry.rejected
                == registry.submitted
            )
            rejected[name] = registry.rejected
            if name == "aegaeon-slo-admission":
                sheds = [
                    event
                    for event in system.obs.tracer.instants
                    if event.name == "policy.admission"
                    and event.args.get("decision") == "shed"
                ]
                assert len(sheds) == registry.rejected
                # The core's canonical reject event rides along.
                rejects = [
                    event
                    for event in system.obs.tracer.instants
                    if event.name == "policy.admission"
                    and event.args.get("reason") == "queue_pressure"
                ]
                assert len(rejects) == registry.rejected
        assert rejected["aegaeon"] == 0
        assert rejected["aegaeon-slo-admission"] > 0


class TestCostAwarePlacement:
    def test_cheapest_per_token_slots_fill_first(self):
        policy = CostAwarePlacement()
        slots = [H800, A10, H800, A10]
        # A10 trades an order of magnitude less bandwidth for ~16x less
        # rent: cheaper per generated token than an H800.
        assert policy.score(A10) < policy.score(H800)
        assert policy.slot_order(slots) == [1, 3, 0, 2]

    def test_popular_models_land_on_cheap_slots(self):
        policy = CostAwarePlacement()
        models = [_model("m0", 4), _model("m1", 4), _model("m2", 4)]
        placements, unplaced = policy.plan(models, [H800, A10])
        assert not unplaced
        # A10: 0.9 * 24 GiB budget fits one (4 + 16) GiB model; the
        # most popular model goes there, overflow falls to the H800.
        assert [spec.name for spec in placements[1]] == ["m0"]
        assert [spec.name for spec in placements[0]] == ["m1", "m2"]

    def test_homogeneous_pool_degrades_to_first_fit(self):
        slots = [H800, H800, H800]
        cost = CostAwarePlacement()
        first_fit = MemoryConstrainedPlacement()
        assert cost.slot_order(slots) == first_fit.slot_order(slots)
        models = [_model(f"m{i}", 20) for i in range(5)]
        assert cost.plan(models, slots) == first_fit.plan(models, slots)

    def test_unknown_gpu_raises_in_placement_and_billing(self, monkeypatch):
        # One rule for a GPU the market table does not price: placement
        # and billing both refuse it rather than guess a rate.
        monkeypatch.delitem(MARKET_HOURLY_USD, "H800")
        system = build_system(
            SystemSpec(
                system="muxserve",
                config=small_config("muxserve"),
                policies="muxserve-cost-placement",
            ),
            Environment(),
        )
        with pytest.raises(KeyError, match="H800"):
            system.prepare(small_trace())
        with pytest.raises(KeyError, match="H800"):
            system.hourly_usd()

    def test_placement_emits_policy_events(self):
        tracer = Tracer()
        policy = CostAwarePlacement()
        models = [_model("m0", 4), _model("huge", 500)]
        policy.plan(models, [H800, A10], tracer=tracer)
        events = [i for i in tracer.instants if i.name == "policy.placement"]
        decisions = {event.args["model"]: event.args["decision"] for event in events}
        assert decisions == {"m0": "place", "huge": "unplaced"}
        placed = next(e for e in events if e.args["decision"] == "place")
        assert placed.args["gpu"] == "A10"
        assert placed.args["usd_per_gbs"] > 0

    def test_muxserve_cost_bundle_serves(self):
        """The cost-placement bundle drives a full MuxServe run."""
        env = Environment()
        system = build_system(
            SystemSpec(
                system="muxserve",
                config=small_config("muxserve"),
                policies="muxserve-cost-placement",
            ),
            env,
        )
        trace = small_trace()
        system.serve(trace)
        registry = system.registry
        assert registry.finished > 0
        assert (
            registry.finished + registry.failed + registry.rejected
            == registry.submitted
        )


class TestEnvSurface:
    def test_run_settings_read_policies(self):
        settings = RunSettings.from_env({"REPRO_POLICIES": "aegaeon-slo-admission"})
        assert settings.policies == "aegaeon-slo-admission"
        assert RunSettings.from_env({"REPRO_POLICIES": "  "}).policies is None
        assert RunSettings.from_env({}).policies is None


class TestSchedulerViewIsolation:
    """``fail_instance`` must never mutate anything but the scheduler's
    own dispatch view (the list policies read)."""

    def _system(self):
        env = Environment()
        return build_system(SystemSpec(config=small_config("aegaeon")), env)

    def test_schedulers_copy_the_caller_list(self):
        system = self._system()
        mine = list(system.decode_instances)
        scheduler = BatchedDecodeScheduler(mine)
        assert scheduler.instances is not mine
        scheduler.instances.clear()
        assert mine == list(system.decode_instances)

        prefill = list(system.prefill_instances)
        prefill_scheduler = GroupedPrefillScheduler(prefill)
        assert prefill_scheduler.instances is not prefill

    def test_fail_instance_shrinks_only_the_dispatch_view(self):
        system = self._system()
        prefill_pool = list(system.prefill_instances)
        decode_pool = list(system.decode_instances)
        view = system.decode_scheduler.instances

        system.fail_instance("decode0")

        # Pool lists keep the dead instance (per-engine stats survive)...
        assert system.prefill_instances == prefill_pool
        assert system.decode_instances == decode_pool
        # ...while the policies' dispatch view shrank in place.
        assert system.decode_scheduler.instances is view
        assert view == []
        assert system.prefill_scheduler.instances == prefill_pool

    def test_dispatch_after_failure_raises_lookup_error(self):
        system = self._system()
        system.fail_instance("decode0")
        request = small_trace().requests[0]
        with pytest.raises(LookupError):
            system.decode_scheduler.dispatch(request)
