"""Determinism: identical seeds must give bit-identical serving runs.

The simulation kernel breaks ties by scheduling order, so a full
end-to-end serve — schedulers, engines, transfers, daemons — must be a
pure function of (trace, configuration).
"""

from repro.core import AegaeonConfig, AegaeonServer, SystemSpec, build_system
from repro.baselines import ServerlessLLM
from repro.hardware import Cluster, H800
from repro.models import market_mix
from repro.obs import ObsConfig
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

from .outcomes import request_rows


def run_aegaeon(seed):
    env = Environment()
    server = AegaeonServer(
        env,
        Cluster.homogeneous(env, H800, 1, 4),
        AegaeonConfig(prefill_instances=1, decode_instances=3),
    )
    models = market_mix(8)
    trace = materialize_trace(models, [0.1] * 8, sharegpt(), horizon=60.0, seed=seed)
    result = server.serve(trace)
    return request_rows(result.requests)


class TestDeterminism:
    def test_aegaeon_bitwise_repeatable(self):
        assert run_aegaeon(1) == run_aegaeon(1)

    def test_different_seeds_differ(self):
        assert run_aegaeon(1) != run_aegaeon(2)

    def test_serverless_llm_repeatable(self):
        def run():
            env = Environment()
            server = ServerlessLLM(env, Cluster.homogeneous(env, H800, 1, 2))
            models = market_mix(4)
            trace = materialize_trace(models, [0.1] * 4, sharegpt(), horizon=40.0, seed=5)
            result = server.serve(trace)
            return request_rows(result.requests)

        assert run() == run()


def _canonical(value):
    """Make a metric snapshot comparable: NaN (empty-histogram summary
    statistics) compares unequal to itself, so map it to a sentinel."""
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, float) and value != value:
        return "nan"
    return value


def run_unified_with_metrics(seed):
    """One unified-API serve with the metrics layer on; returns the
    full observable surface: metric snapshot, end time, kernel counters."""
    env = Environment()
    system = build_system(
        SystemSpec(
            config=AegaeonConfig(
                prefill_instances=1,
                decode_instances=2,
                cluster="h800-quad",
                obs=ObsConfig.metrics_only(),
            ),
        ),
        env,
    )
    models = market_mix(6)
    trace = materialize_trace(
        models, [0.15] * 6, sharegpt(), horizon=40.0, seed=seed
    )
    result = system.serve(trace)
    return {
        "metrics": _canonical(result.metrics),
        "end_time": result.end_time,
        "sim_now": env.now,
        "steps": env.steps_executed,
        "requests": request_rows(result.requests),
    }


class TestMetricSnapshotDeterminism:
    """The kernel fast paths must not leak into results: two
    serves of the same seeded trace give identical metric snapshots."""

    def test_snapshots_bitwise_identical(self):
        first = run_unified_with_metrics(11)
        second = run_unified_with_metrics(11)
        assert first["metrics"] == second["metrics"]
        assert first["end_time"] == second["end_time"]
        assert first["sim_now"] == second["sim_now"]
        assert first["steps"] == second["steps"]
        assert first["requests"] == second["requests"]

    def test_snapshot_is_nontrivial(self):
        snapshot = run_unified_with_metrics(11)
        assert snapshot["metrics"], "metrics layer produced an empty snapshot"
        assert snapshot["requests"], "trace produced no requests"
