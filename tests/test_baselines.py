"""Tests for the baseline serving systems."""

import pytest

from repro.baselines import (
    DedicatedServing,
    MuxServe,
    ServerlessLLM,
    ServerlessLLMPlus,
)
from repro.engine import Phase
from repro.hardware import Cluster, H800
from repro.models import get_model, market_mix
from repro.policy import MemoryConstrainedPlacement
from repro.sim import Environment
from repro.workload import market_stream, materialize_trace, sharegpt

GiB = 1024**3


def small_trace(n_models, rps=0.1, horizon=60.0, seed=1):
    models = market_mix(n_models)
    return materialize_trace(models, [rps] * n_models, sharegpt(), horizon=horizon, seed=seed)


class TestPlacement:
    def test_two_large_models_per_gpu(self):
        models = [get_model("Llama-13B"), get_model("Qwen-14B"), get_model("Llama-13B")]
        placements, unplaced = MemoryConstrainedPlacement().plan(models, [H800])
        # 26 + 28 GB weights + 2x16 GB reservations = 86 GB > 72 GB
        # budget: only one 13B-class model fits with another small one.
        assert len(placements[0]) == 1
        assert len(unplaced) == 2

    def test_cap_roughly_two_per_gpu(self):
        models = market_mix(48)
        placements, unplaced = MemoryConstrainedPlacement().plan(models, [H800] * 16)
        placed = sum(len(p) for p in placements)
        assert placed <= 34  # the paper's "at most 32" with slack
        assert placed + len(unplaced) == 48

    def test_everything_fits_when_few_models(self):
        models = market_mix(8)
        placements, unplaced = MemoryConstrainedPlacement().plan(models, [H800] * 16)
        assert not unplaced


class TestMuxServe:
    def test_serves_placed_models(self):
        env = Environment()
        server = MuxServe(env, Cluster.homogeneous(env, H800, 1, 4))
        trace = small_trace(4)
        result = server.serve(trace)
        assert result.finished_requests == len(trace)
        assert result.slo_attainment > 0.9

    def test_rejects_unplaced_models(self):
        env = Environment()
        server = MuxServe(env, Cluster.homogeneous(env, H800, 1, 2))
        trace = small_trace(10, rps=0.1)
        result = server.serve(trace)
        assert server.placed_model_count <= 4
        assert any(r.phase is Phase.REJECTED for r in server.proxy.requests)
        # Rejected requests pull attainment down.
        assert result.slo_attainment < 1.0

    def test_no_switch_cost(self):
        env = Environment()
        server = MuxServe(env, Cluster.homogeneous(env, H800, 1, 2))
        trace = small_trace(4)
        result = server.serve(trace)
        assert result.scaling_latencies().size == 0

    def test_serve_generated_stream(self):
        env = Environment()
        server = MuxServe(env, Cluster.homogeneous(env, H800, 1, 4))
        result = server.serve(market_stream(4, 60.0, seed=5, total_rate=0.4))
        assert server.placed_model_count == 4
        assert result.drained
        assert result.finished_requests == server.proxy.submitted > 0

    def test_placement_ranks_models_by_trace_counts(self):
        # serve(trace) ranks models by rate = count / horizon: the same
        # order as ranking by count, so placements match a count ranking.
        env = Environment()
        server = MuxServe(env, Cluster.homogeneous(env, H800, 1, 2))
        models = market_mix(10)
        trace = materialize_trace(
            models, [0.02 * (index + 1) for index in range(10)], sharegpt(),
            horizon=60.0, seed=2,
        )
        counts = trace.per_model_counts()
        slots = [gpu.spec for gpu in server.cluster.gpus]
        plan = server.policies.placement.plan
        by_count = sorted(models, key=lambda spec: counts[spec.name], reverse=True)
        expected, unplaced = plan(by_count, slots)
        # Guard: the ranking must matter for this trace.
        assert plan(models, slots)[1] != unplaced
        server.serve(trace)
        assert [sorted(instance.models) for instance in server.instances] == [
            sorted(spec.name for spec in placed) for placed in expected if placed
        ]
        assert server.unplaced == {spec.name for spec in unplaced}


class TestDedicated:
    def test_one_gpu_per_model(self):
        env = Environment()
        server = DedicatedServing(env, H800)
        trace = small_trace(5)
        result = server.serve(trace)
        assert server.gpu_count == 5
        assert result.finished_requests == len(trace)

    def test_near_perfect_slo_at_low_load(self):
        env = Environment()
        server = DedicatedServing(env, H800)
        trace = small_trace(3, rps=0.1)
        result = server.serve(trace)
        assert result.slo_attainment > 0.99

    def test_utilization_is_low_for_sporadic_load(self):
        # The §1 motivation: dedicated GPUs for sporadic models idle.
        env = Environment()
        server = DedicatedServing(env, H800)
        trace = small_trace(3, rps=0.05, horizon=120.0)
        server.serve(trace)
        for instance in server.instances.values():
            assert instance.utilization(elapsed=120.0) < 0.5


class TestServerlessLLM:
    def test_completes_requests(self):
        env = Environment()
        server = ServerlessLLM(env, Cluster.homogeneous(env, H800, 1, 3))
        trace = small_trace(5)
        result = server.serve(trace)
        assert result.finished_requests > 0.95 * len(result.requests)

    def test_request_level_switches_recorded(self):
        env = Environment()
        server = ServerlessLLM(env, Cluster.homogeneous(env, H800, 1, 2))
        trace = small_trace(6)
        result = server.serve(trace)
        assert len(result.scale_records) > 0

    def test_hol_blocking_under_pressure(self):
        # §3.1: with more active models than instances, waiting requests
        # blow their TTFT; Aegaeon's differentiation point.
        env = Environment()
        server = ServerlessLLM(env, Cluster.homogeneous(env, H800, 1, 2))
        trace = small_trace(10, rps=0.2, horizon=90.0, seed=6)
        result = server.serve(trace)
        ttfts = result.ttfts()
        assert (ttfts > 10.0).mean() > 0.05

    def test_affinity_dispatch(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, H800, 1, 2)
        server = ServerlessLLM(env, cluster)
        trace = small_trace(2, rps=0.3, horizon=30.0, seed=2)
        result = server.serve(trace)
        # Two models on two instances: switches should be rare after the
        # initial scale-ups.
        switches = [r for r in result.scale_records if r.model_from is not None]
        assert len(switches) <= 4


class TestServerlessLLMPlus:
    def test_sjf_orders_by_service_time(self):
        env = Environment()
        server = ServerlessLLMPlus(env, Cluster.homogeneous(env, H800, 1, 2))
        trace = small_trace(4)
        result = server.serve(trace)
        assert result.finished_requests > 0.95 * len(result.requests)
        assert server.label == "ServerlessLLM+"

    def test_plus_differs_from_base_under_load(self):
        attainments = {}
        for cls in [ServerlessLLM, ServerlessLLMPlus]:
            env = Environment()
            server = cls(env, Cluster.homogeneous(env, H800, 1, 2))
            trace = small_trace(8, rps=0.15, horizon=90.0, seed=9)
            attainments[cls.__name__] = server.serve(trace).slo_attainment
        assert attainments["ServerlessLLM"] != attainments["ServerlessLLMPlus"]
