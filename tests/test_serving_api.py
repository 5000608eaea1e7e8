"""Conformance tests: every system built by ``build_system`` speaks the
same :class:`ServingSystem` protocol and is measured identically."""

import json

import pytest

from repro.core import (
    DECODE_FIRST,
    PREFILL_FIRST,
    AegaeonConfig,
    MuxServeConfig,
    RunSettings,
    ServerlessLLMConfig,
    ServingSystem,
    SystemSpec,
    UnifiedConfig,
    available_systems,
    build_system,
    resolve_cluster,
)
from repro.models import market_mix
from repro.obs import ObsConfig, chrome_trace
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace


def small_trace(n_models=3, rps=0.08, horizon=50.0, seed=11):
    models = market_mix(n_models)
    return materialize_trace(
        models, [rps] * n_models, sharegpt(), horizon=horizon, seed=seed
    )


def small_config(name, obs=ObsConfig.metrics_only()):
    """The smallest sensible deployment of each system (fast to simulate)."""
    if name == "aegaeon":
        return AegaeonConfig(
            prefill_instances=1, decode_instances=1, cluster="h800-pair", obs=obs
        )
    if name in ("serverless-llm", "serverless-llm+"):
        return ServerlessLLMConfig(cluster="h800-pair", obs=obs)
    if name == "muxserve":
        return MuxServeConfig(cluster="h800-pair", obs=obs)
    if name.startswith("unified-"):
        return UnifiedConfig(cluster="h800-pair", obs=obs)
    raise AssertionError(f"no small config for {name}")


class TestFactory:
    def test_available_systems(self):
        names = available_systems()
        assert "aegaeon" in names
        assert "serverless-llm" in names
        assert "muxserve" in names

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown serving system"):
            build_system(SystemSpec(system="nope"), Environment())

    def test_aliases_and_case(self):
        env = Environment()
        system = build_system(
            SystemSpec(system="ServerlessLLM+", config=small_config("serverless-llm+")),
            env,
        )
        assert system.label == "ServerlessLLM+"

    @pytest.mark.parametrize(
        "name, policy",
        [
            ("unified-prefill-first", PREFILL_FIRST),
            ("unified-decode-first", DECODE_FIRST),
        ],
    )
    def test_unified_name_picks_policy(self, name, policy):
        """A UnifiedConfig carries no policy: the system name picks it."""
        system = SystemSpec(system=name, config=small_config(name)).build()
        assert system.label == f"unified-{policy}"
        assert all(instance.policy == policy for instance in system.instances)

    def test_unknown_cluster_preset_raises(self):
        with pytest.raises(ValueError, match="unknown cluster preset"):
            resolve_cluster("tpu-pod", Environment())

    def test_name_string_is_rejected(self):
        """The positional build_system(name, env, config) form is gone;
        a name string fails loudly and points at SystemSpec."""
        with pytest.raises(TypeError, match="SystemSpec"):
            build_system("aegaeon", Environment(), small_config("aegaeon"))

    def test_spec_form_rejects_loose_keywords(self):
        with pytest.raises(TypeError, match="no loose keywords"):
            build_system(
                SystemSpec(config=small_config("aegaeon")),
                Environment(),
                small_config("aegaeon"),
            )

    def test_spec_form_builds_fresh_env_when_omitted(self):
        system = build_system(SystemSpec(config=small_config("aegaeon")))
        assert system.env is not None


class TestConformance:
    @pytest.mark.parametrize("name", available_systems())
    def test_protocol_and_serve(self, name):
        env = Environment()
        system = build_system(SystemSpec(system=name, config=small_config(name)), env)
        assert isinstance(system, ServingSystem)
        assert system.label

        trace = small_trace()
        result = system.serve(trace)
        assert result.label == system.label
        assert len(result.requests) == len(trace)
        assert result.finished_requests > 0
        assert isinstance(result.scale_records, list)
        assert isinstance(result.transfer_stats, list)
        # Metrics were enabled, so every system attaches a snapshot with
        # the shared proxy/sim gauges.
        assert result.metrics["proxy/finished"] == result.finished_requests
        assert result.metrics["sim/steps_executed"] > 0
        assert result.obs is system.obs

    @pytest.mark.parametrize(
        "name", ["aegaeon", "serverless-llm", "serverless-llm+"]
    )
    def test_transfer_stats_flow_through(self, name):
        """The old baseline collect() dropped transfer stats; the shared
        base must route the real per-engine stats for every system."""
        env = Environment()
        system = build_system(SystemSpec(system=name, config=small_config(name)), env)
        result = system.serve(small_trace())
        assert result.transfer_stats, f"{name} returned no transfer stats"

    def test_obs_level_does_not_change_results(self):
        """Tracing stamps simulated time; enabling it must not perturb
        any scheduling decision or token time."""
        token_times = {}
        for obs in (ObsConfig.off(), ObsConfig.full()):
            env = Environment()
            system = build_system(
                SystemSpec(config=small_config("aegaeon", obs=obs)), env
            )
            result = system.serve(small_trace())
            token_times[obs.full_trace] = {
                r.request_id: list(r.token_times) for r in result.requests
            }
        assert token_times[False] == token_times[True]

    def test_obs_off_records_nothing(self):
        env = Environment()
        system = build_system(
            SystemSpec(config=small_config("aegaeon", obs=ObsConfig.off())), env
        )
        result = system.serve(small_trace())
        assert result.metrics == {}
        assert len(result.obs.tracer) == 0


class TestDrain:
    def test_full_serve_is_drained(self):
        system = build_system(SystemSpec(config=small_config("aegaeon")))
        result = system.serve(small_trace())
        assert result.drained
        assert result.unaccounted == 0
        assert system.proxy.live == {}

    def test_cut_short_serve_reports_in_flight(self):
        system = build_system(SystemSpec(config=small_config("aegaeon")))
        trace = small_trace(n_models=4, rps=0.5, horizon=60.0)
        result = system.serve(trace, until=20.0)
        assert not result.drained
        assert result.end_time == pytest.approx(20.0)
        in_flight = len(system.proxy.live)
        assert 0 < in_flight < system.proxy.submitted < len(trace)
        assert result.unaccounted == in_flight == system.registry.in_flight
        assert result.unaccounted == system.proxy.submitted - system.accounted


class TestAcceptance:
    def test_full_trace_run_exports_switch_timeline(self):
        """ISSUE acceptance: a full-trace Aegaeon run yields a loadable
        Chrome trace whose model-switch spans carry per-stage children."""
        env = Environment()
        system = build_system(
            SystemSpec(config=small_config("aegaeon", obs=ObsConfig.full())), env
        )
        result = system.serve(small_trace(n_models=4, rps=0.12))

        tracer = result.obs.tracer
        switches = tracer.spans_named("model_switch")
        assert switches, "no model switches traced"
        staged = [s for s in switches if tracer.children_of(s)]
        assert staged, "no switch span has per-stage children"
        for child in tracer.children_of(staged[0]):
            assert child.cat == "switch.stage"
            assert child.parent == "model_switch"

        document = json.loads(json.dumps(chrome_trace(tracer)))
        events = document["traceEvents"]
        assert any(
            e["ph"] == "X" and e["name"] == "model_switch" for e in events
        )
        assert result.transfer_stats
        assert any(
            stats.swap_in_count or stats.swap_out_count
            for stats in result.transfer_stats
        )


class TestRunSettings:
    def test_defaults(self):
        settings = RunSettings.from_env({})
        assert settings.horizon == 150.0
        assert settings.scale == 1.0
        assert settings.seed == 2025
        assert settings.obs == ObsConfig.off()

    def test_env_overrides(self):
        settings = RunSettings.from_env(
            {
                "REPRO_BENCH_HORIZON": "60",
                "REPRO_BENCH_SCALE": "0.5",
                "REPRO_BENCH_SEED": "7",
                "REPRO_OBS": "full",
            }
        )
        assert settings.horizon == 60.0
        assert settings.scale == 0.5
        assert settings.seed == 7
        assert settings.obs == ObsConfig.full()

    def test_unknown_repro_key_warns(self):
        with pytest.warns(RuntimeWarning, match="REPRO_BENCH_HORIZN"):
            RunSettings.from_env({"REPRO_BENCH_HORIZN": "60"})

    def test_typoed_tunable_warns(self):
        with pytest.warns(RuntimeWarning, match="REPRO_TUNE_QMAXX"):
            RunSettings.from_env({"REPRO_TUNE_QMAXX": "8"})

    def test_typo_warning_suggests_nearest_key(self):
        with pytest.warns(RuntimeWarning, match="did you mean 'REPRO_BENCH_HORIZON'"):
            RunSettings.from_env({"REPRO_BENCH_HORIZN": "60"})

    def test_fleet_keys_are_recognized(self):
        """REPRO_FLEET_* belongs to FleetConfig.from_env but shares the
        one envkeys registry — RunSettings must not flag it as a typo."""
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            RunSettings.from_env({"REPRO_FLEET_CONTROLLER": "forecast"})

    def test_known_keys_are_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            RunSettings.from_env(
                {
                    "REPRO_BENCH_HORIZON": "60",
                    "REPRO_OBS": "metrics",
                    "REPRO_INVARIANTS": "",
                    "REPRO_TUNE_QMAX": "8",
                    "OTHER_PREFIX": "ignored",
                }
            )


class TestSystemSpec:
    def test_build_matches_build_system(self):
        spec = SystemSpec(system="aegaeon", config=small_config("aegaeon"))
        system = spec.build(Environment())
        direct = build_system(
            SystemSpec(system="aegaeon", config=small_config("aegaeon")),
            Environment(),
        )
        assert type(system) is type(direct)
        assert system.gpu_count == direct.gpu_count

    def test_defaults_resolve_per_system(self):
        for name in available_systems():
            config = SystemSpec(system=name).resolve_config()
            assert config is not None
            assert hasattr(config, "cluster")

    def test_overrides_apply_without_config(self):
        spec = SystemSpec(system="muxserve", cluster="h800-pair", policies="aegaeon")
        config = spec.resolve_config()
        assert config.cluster == "h800-pair"
        assert config.policies == "aegaeon"

    def test_overrides_apply_on_top_of_config(self):
        base = small_config("aegaeon")
        spec = SystemSpec(config=base, obs=ObsConfig.off())
        config = spec.resolve_config()
        assert config.obs == ObsConfig.off()
        assert config.cluster == base.cluster  # untouched fields survive

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec(system="nope").resolve_config()

    def test_invariants_flag_attaches_checker(self):
        spec = SystemSpec(config=small_config("aegaeon"), invariants=True)
        system = spec.build(Environment())
        assert system.invariant_checker is not None
