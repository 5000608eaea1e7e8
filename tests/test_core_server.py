"""Integration tests: the full Aegaeon server on small workloads."""

import numpy as np
import pytest

from repro.core import AegaeonConfig, AegaeonServer, SloSpec
from repro.engine import EngineConfig
from repro.hardware import Cluster, H800
from repro.models import market_mix, get_model
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

GiB = 1024**3


def small_server(env, prefill=1, decode=2, **engine_overrides):
    cluster = Cluster.homogeneous(env, H800, 1, prefill + decode)
    config = AegaeonConfig(
        prefill_instances=prefill,
        decode_instances=decode,
        engine=EngineConfig(**engine_overrides),
    )
    return AegaeonServer(env, cluster, config)


def small_trace(n_models, rps=0.1, horizon=60.0, seed=1):
    models = market_mix(n_models)
    return materialize_trace(models, [rps] * n_models, sharegpt(), horizon=horizon, seed=seed)


class TestEndToEnd:
    def test_all_requests_complete(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(4)
        result = server.serve(trace)
        assert result.finished_requests == len(trace)
        assert result.finished_requests == len(result.requests)

    def test_token_counts_exact(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(3, seed=2)
        result = server.serve(trace)
        expected = sum(r.output_tokens for r in trace.requests)
        assert result.rollup.total.tokens_generated == expected

    def test_light_load_meets_slo(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(4, rps=0.05, horizon=80.0)
        result = server.serve(trace)
        assert result.slo_attainment > 0.9

    def test_token_times_monotone_per_request(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(4, seed=3)
        result = server.serve(trace)
        for request in result.requests:
            times = np.array(request.token_times)
            assert np.all(np.diff(times) >= -1e-9)
            assert times[0] >= request.arrival

    def test_more_models_than_gpus(self):
        # The headline capability: more models than the whole GPU pool.
        env = Environment()
        server = small_server(env, prefill=1, decode=2)
        trace = small_trace(8, rps=0.05, horizon=60.0)
        result = server.serve(trace)
        assert result.finished_requests == len(trace)
        models_used = {r.model for r in trace.requests}
        assert len(models_used) > 3  # genuinely multi-model

    def test_registry_tracks_completion(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(3)
        server.serve(trace)
        assert server.registry.finished == len(trace)
        assert server.registry.in_flight == 0

    def test_scaling_occurred(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(6)
        result = server.serve(trace)
        assert len(result.scaling_latencies()) > 0

    def test_optimized_scaling_subsecond_median(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(6, horizon=90.0)
        result = server.serve(trace)
        latencies = result.scaling_latencies()
        assert np.median(latencies) < 1.0  # §7.3 headline


class TestKvConsistency:
    def test_no_leaked_kv_after_run(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(4)
        server.serve(trace)
        # Let in-flight transfers and daemons settle.
        env.run(until=env.now + 5.0)
        for instance in server.decode_instances:
            assert instance.engine.gpu_kv_cache.held_bytes == 0
        # CPU cache may only hold move-list remnants, which the daemon
        # should have reclaimed by now.
        assert server.move_list.pending_blocks == 0
        assert server.cpu_kv_cache.held_bytes == 0

    def test_weight_buffers_hold_single_model(self):
        env = Environment()
        server = small_server(env)
        trace = small_trace(4)
        server.serve(trace)
        for instance in [*server.prefill_instances, *server.decode_instances]:
            engine = instance.engine
            live = engine.weights.live_allocations
            # At most the running model plus one prefetched model.
            assert len(live) <= 2


class TestConfig:
    def test_too_few_gpus_rejected(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, H800, 1, 2)
        with pytest.raises(ValueError):
            AegaeonServer(env, cluster, AegaeonConfig(prefill_instances=2, decode_instances=2))

    def test_paper_testbed_shape(self):
        env = Environment()
        server = AegaeonServer.paper_testbed(env)
        assert len(server.prefill_instances) == 6
        assert len(server.decode_instances) == 10
        assert server.config.gpus_needed == 16

    def test_a10_testbed_disables_prefetch(self):
        env = Environment()
        server = AegaeonServer.a10_testbed(env)
        assert not server.config.engine.prefetch
        assert len(server.prefill_instances) == 2
        assert len(server.decode_instances) == 2

    def test_tp4_testbed(self):
        env = Environment()
        server = AegaeonServer.tp4_testbed(env)
        assert server.config.engine.tp == 4
        assert server.config.gpus_needed == 8


class TestStricterSlo:
    def test_stricter_slo_lowers_attainment(self):
        results = {}
        for factor in [1.0, 0.2]:
            env = Environment()
            cluster = Cluster.homogeneous(env, H800, 1, 3)
            config = AegaeonConfig(
                prefill_instances=1,
                decode_instances=2,
                slo=SloSpec().scale(factor),
            )
            server = AegaeonServer(env, cluster, config)
            trace = small_trace(8, rps=0.1, horizon=60.0, seed=4)
            results[factor] = server.serve(trace).slo_attainment
        assert results[0.2] < results[1.0]


class TestTp4Serving:
    def test_72b_models_serve(self):
        env = Environment()
        server = AegaeonServer.tp4_testbed(env)
        spec = get_model("Qwen-72B")
        from dataclasses import replace

        models = [replace(spec, name=f"Qwen-72B#{i}") for i in range(3)]
        trace = materialize_trace(models, [0.05] * 3, sharegpt(), horizon=60.0, seed=5)
        result = server.serve(trace)
        assert result.finished_requests == len(trace)
