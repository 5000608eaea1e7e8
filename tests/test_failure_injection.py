"""Failure injection and degraded-mode behaviour.

Exercises the paths a production deployment hits when resources run
short or assumptions break: cold checkpoints (remote registry fetch),
host-cache thrash, CPU KV cache pressure, oversized configurations, and
drain deadlines with unfinished work.
"""

import pytest

from repro.chaos import ArmedFetchFailures
from repro.core import AegaeonConfig, AegaeonServer
from repro.engine import AegaeonEngine, EngineConfig, Phase
from repro.hardware import Cluster, H800, Node
from repro.memory import HostModelCache, SlabAllocator
from repro.models import get_model, market_mix
from repro.policy.scaling import TokenLevelScaling
from repro.sim import Environment
from repro.transfer.loader import CheckpointFetchError
from repro.workload import Trace, TraceRequest, sharegpt, materialize_trace

GiB = 1024**3
MiB = 1024**2


class TestColdCheckpoints:
    def test_serving_without_warm_cache_fetches_remote(self):
        # warm=False: every first touch of a model goes to the registry.
        env = Environment()
        server = AegaeonServer(
            env,
            Cluster.homogeneous(env, H800, 1, 3),
            AegaeonConfig(prefill_instances=1, decode_instances=2),
        )
        models = market_mix(4)
        trace = materialize_trace(models, [0.05] * 4, sharegpt(), horizon=60.0, seed=2)
        result = server.serve(trace, warm=False)
        assert result.finished_requests == len(trace)
        fetches = sum(
            instance.engine.quick_loader.remote_fetches
            for instance in [*server.prefill_instances, *server.decode_instances]
        )
        assert fetches > 0
        # Cold starts cost seconds, visibly worse than the warm path.
        assert result.slo_attainment < 1.0

    def test_tiny_model_cache_thrashes_but_serves(self):
        env = Environment()
        config = AegaeonConfig(
            prefill_instances=1,
            decode_instances=2,
            model_cache_bytes=40 * GiB,  # fits only ~2 checkpoints
        )
        server = AegaeonServer(env, Cluster.homogeneous(env, H800, 1, 3), config)
        models = market_mix(6)
        trace = materialize_trace(models, [0.05] * 6, sharegpt(), horizon=60.0, seed=3)
        result = server.serve(trace, warm=False)
        assert result.finished_requests == len(trace)
        assert server.model_cache.evictions > 0

    def test_unreachable_checkpoint_aborts_the_decode_batch(self):
        # The decode node keeps its own (empty) host cache, so its first
        # switch fetches from the registry; with no retries, one failed
        # fetch fails the turn's batch instead of wedging the rotation.
        env = Environment()
        server = AegaeonServer(
            env,
            Cluster.homogeneous(env, H800, 1, 2),
            AegaeonConfig(prefill_instances=1, decode_instances=1),
        )
        (decode,) = server.decode_instances
        loader = decode.engine.quick_loader
        loader.max_fetch_retries = 0
        loader.model_cache = HostModelCache(server.config.model_cache_bytes)
        loader.fetch_disruptor = ArmedFetchFailures()
        loader.fetch_disruptor.arm(count=1, wasted=0.1)
        failed = []

        def on_failed(request, forward=decode.on_failed):
            failed.append(request)
            forward(request)

        decode.on_failed = on_failed
        trace = materialize_trace(
            market_mix(1), [0.5], sharegpt(), horizon=20.0, seed=5
        )
        result = server.serve(trace)

        assert decode.fetch_aborts == 1
        assert loader.fetch_disruptor.tripped == 1
        assert failed and all(request.phase is Phase.FAILED for request in failed)
        registry = server.registry
        assert registry.failed == len(failed)
        assert registry.finished > 0  # later batches fetch cleanly
        assert (
            registry.finished + registry.failed + registry.rejected
            == registry.submitted
            == len(trace)
        )
        assert result.drained and result.unaccounted == 0


class TestFailedSwitch:
    """A switch whose weight load fails leaves no model active: the old
    model's weights were retired before the load, so its next batch must
    switch back instead of decoding on weights that are gone."""

    def test_engine_has_no_active_model_after_a_failed_load(self):
        env = Environment()
        node = Node(env, H800, gpu_count=1)
        a, b = get_model("Qwen-7B"), get_model("Yi-6B")
        cache = HostModelCache(640 * GiB)
        cache.insert(a.name, a.weight_bytes)  # b must come from the registry
        engine = AegaeonEngine(
            env, node, node.gpus[:1], cache,
            SlabAllocator(region_bytes=320 * GiB, slab_bytes=256 * MiB),
            config=EngineConfig(prefetch=False),
        )
        loader = engine.quick_loader
        loader.max_fetch_retries = 0
        loader.fetch_disruptor = ArmedFetchFailures()
        loader.fetch_disruptor.arm(count=1, wasted=0.1)
        aborted = []

        def switches():
            yield from engine.scale_to(a)
            try:
                yield from engine.scale_to(b)
            except CheckpointFetchError:
                aborted.append(env.now)

        env.run(until=env.process(switches()))
        assert aborted and loader.fetch_disruptor.tripped == 1
        assert engine.current_model is None
        assert engine._current_weights is None
        assert TokenLevelScaling().should_switch(engine, a)
        assert [r.model_to for r in engine.scale_history] == [a.name]  # not logged

        def back():
            return (yield from engine.scale_to(a))

        record = env.run(until=env.process(back()))
        assert record == engine.scale_history[-1]
        assert (record.model_from, record.model_to) == (None, a.name)
        assert list(record.stages) == ["reinit", "model_load"]
        assert engine.current_model is a

    def test_a_b_a_serve_conserves_requests(self):
        # One decode instance whose host cache holds only A: B's fetch
        # fails once, and A's later batches switch back to A.
        env = Environment()
        server = AegaeonServer(
            env,
            Cluster.homogeneous(env, H800, 1, 2),
            AegaeonConfig(prefill_instances=1, decode_instances=1),
        )
        a, b = market_mix(2)
        (decode,) = server.decode_instances
        engine = decode.engine
        loader = engine.quick_loader
        loader.max_fetch_retries = 0
        loader.model_cache = HostModelCache(server.config.model_cache_bytes)
        loader.model_cache.insert(a.name, engine.shard_bytes(a))
        loader.fetch_disruptor = ArmedFetchFailures()
        loader.fetch_disruptor.arm(count=1, wasted=0.1)
        arrivals = [(a, 0.0), (b, 0.2), (a, 0.4), (a, 4.0), (a, 8.0)]
        trace = Trace(
            [
                TraceRequest(index, spec.name, at, 200, 60)
                for index, (spec, at) in enumerate(arrivals)
            ],
            [a, b],
            horizon=20.0,
        )
        result = server.serve(trace)

        assert decode.fetch_aborts == 1
        # A booted twice on the decode engine: once at the start and once
        # after B's failed load left no model active.
        boots = [r for r in engine.scale_history if r.model_from is None]
        assert [r.model_to for r in boots] == [a.name, a.name]
        registry = server.registry
        assert registry.failed >= 1 and registry.finished > 0
        assert (
            registry.finished + registry.failed + registry.rejected
            == registry.submitted
            == len(trace)
        )
        assert registry.in_flight == 0
        assert result.drained and result.unaccounted == 0


class TestMemoryPressure:
    def test_small_cpu_kv_cache_still_completes(self):
        # A 2 GiB CPU KV cache in 64 MiB slabs fills up under this load:
        # the prefill instance parks for CPU space, and decode turns end
        # with KV kept on the GPU because the CPU cache cannot take it.
        # Every request still finishes, and the run drains.
        env = Environment()
        config = AegaeonConfig(
            prefill_instances=1,
            decode_instances=2,
            cpu_kv_cache_bytes=2 * GiB,
            cpu_slab_bytes=64 * MiB,
        )
        server = AegaeonServer(env, Cluster.homogeneous(env, H800, 1, 3), config)
        checker = server.attach_invariants()
        models = market_mix(4)
        trace = materialize_trace(models, [0.4] * 4, sharegpt(), horizon=40.0, seed=4)
        result = server.serve(trace)
        checker.assert_clean()
        assert result.drained and result.unaccounted == 0
        assert result.finished_requests == len(trace)
        assert server.prefill_instances[0].kv_waits > 0
        assert sum(d.kept_resident for d in server.decode_instances) > 0

    def test_weight_buffer_too_large_rejected(self):
        env = Environment()
        node = Node(env, H800, gpu_count=1)
        with pytest.raises(MemoryError):
            AegaeonEngine(
                env,
                node,
                node.gpus,
                HostModelCache(64 * GiB),
                SlabAllocator(8 * GiB, 256 * MiB),
                config=EngineConfig(weight_buffer_bytes=80 * GiB),
            )

    def test_model_larger_than_weight_buffer_raises(self):
        env = Environment()
        node = Node(env, H800, gpu_count=1)
        cache = HostModelCache(640 * GiB)
        spec = get_model("Qwen-72B")  # 145 GB > 20 GiB buffer
        cache.insert(spec.name, spec.weight_bytes)
        engine = AegaeonEngine(
            env,
            node,
            node.gpus,
            cache,
            SlabAllocator(8 * GiB, 256 * MiB),
            config=EngineConfig(weight_buffer_bytes=20 * GiB, prefetch=False),
            pre_initialized=True,
        )

        def scenario():
            yield from engine.scale_to(spec)

        process = env.process(scenario())
        with pytest.raises(MemoryError):
            env.run(until=process)


class TestDrainDeadline:
    def test_overload_hits_drain_grace_without_hanging(self):
        # An impossible load on one GPU: the watchdog must stop at the
        # drain deadline, reporting unfinished requests honestly.
        env = Environment()
        config = AegaeonConfig(
            prefill_instances=1, decode_instances=1, drain_grace=20.0
        )
        server = AegaeonServer(env, Cluster.homogeneous(env, H800, 1, 2), config)
        models = market_mix(20)
        trace = materialize_trace(models, [0.5] * 20, sharegpt(), horizon=30.0, seed=6)
        result = server.serve(trace)
        assert env.now <= trace.horizon + config.drain_grace + 2.0
        assert result.finished_requests < len(result.requests)
        assert result.slo_attainment < 0.9
