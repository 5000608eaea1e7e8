"""Conformance tests: every system built by ``build_system`` speaks the
same :class:`ServingSystem` protocol and is measured identically."""

import json
from collections.abc import Sequence
from dataclasses import replace

import pytest

from repro.core import (
    DECODE_FIRST,
    PREFILL_FIRST,
    AegaeonConfig,
    RunSettings,
    ServingSystem,
    SloSpec,
    SystemConfig,
    SystemSpec,
    available_systems,
    build_system,
    resolve_cluster,
)
from repro.hardware import H800
from repro.models import market_mix
from repro.obs import ObsConfig, chrome_trace
from repro.policy import get_bundle
from repro.sim import Environment
from repro.workload import materialize_trace, sharegpt, sharegpt_ox2

from .outcomes import request_rows


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
    return SystemConfig(cluster="h800-pair", obs=obs)


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
        """A SystemConfig carries no policy: the system name picks it."""
        system = SystemSpec(system=name, config=small_config(name)).build()
        assert system.label == f"unified-{policy}"
        assert all(instance.policy == policy for instance in system.instances)

    def test_unknown_cluster_preset_raises(self):
        with pytest.raises(ValueError, match="unknown cluster preset"):
            resolve_cluster("tpu-pod", Environment())

    def test_name_string_is_rejected(self):
        """build_system takes a SystemSpec, never a system name; a name
        string fails loudly and points at SystemSpec."""
        with pytest.raises(TypeError, match="SystemSpec"):
            build_system("aegaeon", Environment())

    def test_spec_form_rejects_loose_keywords(self):
        with pytest.raises(TypeError, match="positional argument"):
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
        assert isinstance(result.scale_records, Sequence)
        assert list(result.scale_records) == [
            record for engine in system.engines() for record in engine.scale_history
        ]
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
        rows = {}
        for obs in (ObsConfig.off(), ObsConfig.full()):
            env = Environment()
            system = build_system(
                SystemSpec(config=small_config("aegaeon", obs=obs)), env
            )
            result = system.serve(small_trace())
            rows[obs.full_trace] = request_rows(result.requests)
        assert rows[False] == rows[True]

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

    @pytest.mark.parametrize("bundle", ["aegaeon", "unified-prefill-first"])
    def test_disposed_requests_hold_no_kv_handle(self, bundle):
        # A retained request pins none of its KV state once disposed:
        # not its handle, last transfer event or dead extents.  The
        # invariant checker's disposal vetting runs before the handle
        # is dropped, and finds no live extent on it.
        name = get_bundle(bundle).system
        spec = SystemSpec(
            system=name, config=small_config(name), policies=bundle, invariants=True
        )
        result = spec.build().serve(small_trace(n_models=4, rps=0.2))
        assert result.drained and result.finished_requests > 0
        assert all(request.kv is None for request in result.requests)

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

    def test_streaming_serve_is_refused(self):
        # Without retained requests serve() would collect an empty result
        # that reads as a perfect, drained run.
        system = build_system(SystemSpec(config=small_config("aegaeon")))
        system.configure_streaming(retain_requests=False)
        with pytest.raises(RuntimeError, match=r"FleetConfig\(shards=1"):
            system.serve(small_trace())
        assert system.proxy.submitted == 0

    @pytest.mark.parametrize("name", available_systems())
    def test_config_drain_grace_reaches_the_system(self, name):
        # Every deployment knob of the config reaches the built system,
        # the cluster's GPUs included (a fleet bills them by type).
        slo = SloSpec(ttft=4.0, tbt=0.2)
        obs = ObsConfig.full()
        config = replace(
            small_config(name), drain_grace=7.0, slo=slo, obs=obs, cluster="h800-quad"
        )
        system = build_system(SystemSpec(system=name, config=config))
        assert system.drain_grace == 7.0
        assert system.slo == slo
        assert system.obs.config == obs
        assert [gpu.spec for gpu in system.cluster.gpus] == [H800] * 4

    def test_fig12d_serverless_plus_drains_within_a_450s_grace(self):
        # Fig 12(d)'s ShareGPT-ox2 / 32-model ServerlessLLM+ point (trace
        # seed 3057): its request-level backlog runs past the 450 s
        # deadline a 300 s grace sets (28 in flight there).
        trace = materialize_trace(
            market_mix(32), [0.5] * 32, sharegpt_ox2(), 150.0, seed=3057
        )
        config = SystemConfig(drain_grace=450.0)
        system = build_system(SystemSpec(system="serverless-llm+", config=config))
        result = system.serve(trace)
        assert result.drained and result.unaccounted == 0
        assert result.finished_requests == len(trace) == 2401
        assert result.end_time == pytest.approx(498.0)


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

    def test_removed_keys_warn(self):
        """Tuning constants, fleet shape and agentic workload shape have
        no environment keys; setting one must not pass silently."""
        for key in ("REPRO_TUNE_QMAX", "REPRO_FLEET_SHARDS", "REPRO_WORKLOAD_SEED"):
            with pytest.warns(RuntimeWarning, match=f"unrecognized environment variable '{key}'"):
                RunSettings.from_env({key: "1"})

    def test_known_keys_are_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            RunSettings.from_env(
                {
                    "REPRO_BENCH_HORIZON": "60",
                    "REPRO_OBS": "metrics",
                    "REPRO_INVARIANTS": "",
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
