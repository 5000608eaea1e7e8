"""KV-cache back-pressure: instances wait for space, never poll for it.

The prefill task parks on a full cache's next ``free``; the decode task
never waits for space (a swap-in with no room leaves the request on the
CPU for the turn, a swap-out with no room leaves the KV on the GPU); a
KV larger than a whole empty region fails its request.  The unit tests
drive hand-built instances through each of these states; the drain
tests replay workloads that used to livelock on retry timers.
"""

import pytest

from repro.core import (
    AegaeonConfig,
    AegaeonServer,
    DEFAULT_SLO,
    DecodeBatch,
    RunSettings,
    SystemSpec,
    build_system,
)
from repro.core.instance import DecodeInstance, PrefillInstance
from repro.core.prefill_sched import PrefillGroup
from repro.engine import AegaeonEngine, EngineConfig, Phase
from repro.hardware import Cluster, H800, Node
from repro.memory import HostModelCache, KvTooLargeError, SlabAllocator
from repro.models import get_model, kv_shape, market_mix
from repro.policy import Tunables
from repro.sim import Environment
from repro.workload import materialize_trace, sharegpt, sharegpt_ix2, sharegpt_ox2

from .test_core_instances import make_request, prefilled_request

GiB = 1024**3
MiB = 1024**2


def make_engine(env, weight_buffer_gib=44, cpu_kv_bytes=320 * GiB, cpu_slab=256 * MiB):
    """One warm H800 engine; a bigger weight buffer leaves less GPU KV."""
    node = Node(env, H800, gpu_count=1)
    cache = HostModelCache(640 * GiB)
    for name in ("Qwen-7B", "Yi-6B"):
        cache.insert(name, get_model(name).weight_bytes)
    return AegaeonEngine(
        env, node, node.gpus, cache, SlabAllocator(cpu_kv_bytes, cpu_slab),
        config=EngineConfig(weight_buffer_bytes=weight_buffer_gib * GiB),
        pre_initialized=True,
    )


def fill(cache, model="Qwen-7B"):
    """Take every block of ``cache`` free for ``model``'s KV shape."""
    shape = kv_shape(get_model(model))
    block_bytes = shape.block_bytes()
    return cache.alloc(shape, block_bytes, cache.capacity_for(shape, block_bytes))


def live_blocks(cache):
    return cache.blocks_allocated - cache.blocks_freed


class TestAllocatorWaits:
    def test_too_large_is_typed(self):
        cache = SlabAllocator(4 * 64 * MiB, 64 * MiB)
        with pytest.raises(KvTooLargeError):
            cache.alloc("s", MiB, 4 * 64 + 1)
        extent = cache.alloc("s", MiB, 4 * 64)
        with pytest.raises(MemoryError) as info:
            cache.alloc("s", MiB, 1)  # full, but would fit the empty region
        assert type(info.value) is MemoryError
        cache.free(extent)

    def test_free_wakes_parked_events_in_order(self):
        env = Environment()
        cache = SlabAllocator(2 * 64 * MiB, 64 * MiB)
        extent = cache.alloc("s", MiB, 10)
        woken = []
        for tag in ("first", "second"):
            event = env.event()
            event.callbacks.append(lambda _, tag=tag: woken.append((tag, env.now)))
            cache.wake_on_free(event)
        env.run(until=1.0)
        assert woken == []
        triggered_elsewhere = env.event()
        cache.wake_on_free(triggered_elsewhere)
        triggered_elsewhere.succeed()
        env.run(until=2.0)
        cache.free(extent)  # skips the already-triggered event
        env.run(until=3.0)
        assert woken == [("first", 2.0), ("second", 2.0)]


class TestPrefillWaits:
    def test_blocked_alloc_resumes_at_the_freeing_instant(self):
        env = Environment()
        engine = make_engine(env)
        handed = []
        instance = PrefillInstance(env, engine, handed.append)
        filler = fill(engine.gpu_kv_cache)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        request = make_request(0)
        group.add(request)
        instance.groups.append(group)
        instance.kick()

        def release():
            yield env.timeout(30.123)
            engine.gpu_kv_cache.free(filler)

        env.process(release())
        env.run(until=60.0)
        assert handed == [request]
        # Not on a 5 ms grid: the prefill starts at the free itself.
        assert request.prefill_start == 30.123
        assert instance.kv_waits == 1

    def test_blocked_swap_out_resumes_at_the_freeing_instant(self):
        env = Environment()
        engine = make_engine(env, cpu_kv_bytes=1 * GiB, cpu_slab=64 * MiB)
        handed = []
        instance = PrefillInstance(env, engine, handed.append)
        filler = fill(engine.kv.cpu_cache)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        request = make_request(0)
        group.add(request)
        instance.groups.append(group)
        instance.kick()
        freed_at = []

        def release():
            yield env.timeout(30.5)
            freed_at.append(env.now)
            engine.kv.cpu_cache.free(filler)

        env.process(release())
        env.run(until=20.0)
        assert handed == [] and request.prefill_end is not None
        env.run(until=60.0)
        assert handed == [request]
        assert request.decode_enqueue == freed_at[0] == 30.5
        assert instance.kv_waits == 1

    def test_kv_larger_than_the_cpu_region_fails_its_request(self):
        # Request 2 of the 1 GiB, seed 1 grid run: a 1,088 MiB Qwen-7B
        # KV, which no free can ever make room for.
        env = Environment()
        engine = make_engine(env, cpu_kv_bytes=1 * GiB, cpu_slab=64 * MiB)
        handed, failed = [], []
        instance = PrefillInstance(env, engine, handed.append, on_failed=failed.append)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        huge = make_request(0, inp=2176)
        small = make_request(1, inp=256)
        group.add(huge)
        group.add(small)
        instance.groups.append(group)
        instance.kick()
        env.run(until=60.0)
        assert failed == [huge] and handed == [small]
        assert huge.kv is None and huge.generated_tokens == 0
        assert instance.kv_waits == 0
        # Conservation: the failed request's GPU blocks went back, and
        # only the handed-off request holds CPU blocks.
        assert live_blocks(engine.gpu_kv_cache) == 0
        assert live_blocks(engine.kv.cpu_cache) == len(small.kv.cpu_blocks)

    def test_kv_larger_than_the_gpu_region_fails_its_request(self):
        env = Environment()
        engine = make_engine(env, weight_buffer_gib=71)  # about 1 GiB of GPU KV
        failed = []
        instance = PrefillInstance(env, engine, lambda r: None, on_failed=failed.append)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        huge = make_request(0, inp=4096)
        group.add(huge)
        instance.groups.append(group)
        instance.kick()
        env.run(until=60.0)
        assert failed == [huge]
        assert live_blocks(engine.gpu_kv_cache) == 0


class TestDecodeNeverWaits:
    def small_gpu_instance(self, env, **engine_kw):
        engine = make_engine(env, weight_buffer_gib=71, **engine_kw)
        finished, failed = [], []
        instance = DecodeInstance(
            env, engine, DEFAULT_SLO, finished.append, on_failed=failed.append
        )
        return engine, instance, finished, failed

    def resident(self, env, engine, request):
        """Place ``request``'s KV on the GPU, as a finished swap-in would."""
        prefilled_request(env, engine, request)
        kv = request.kv
        engine.kv.cpu_cache.free(kv.cpu_blocks)
        kv.cpu_blocks = None
        kv.gpu_blocks = engine.gpu_kv_cache.alloc(
            kv.shape, kv.block_bytes, kv.block_count
        )
        kv.location = "gpu"
        return request

    def test_turn_with_nothing_resident_ends_and_gpu_holder_decodes(self):
        env = Environment()
        engine, instance, finished, failed = self.small_gpu_instance(env)
        cache = engine.gpu_kv_cache
        shape = kv_shape(get_model("Qwen-7B"))
        capacity_tokens = cache.capacity_for(shape, shape.block_bytes()) * 16
        # B holds all but a few GPU blocks and fits its whole output.
        holder = self.resident(
            env, engine, make_request(1, inp=capacity_tokens - 64, out=48)
        )
        waiter = prefilled_request(env, engine, make_request(0, inp=256, out=32))
        spec = get_model("Qwen-7B")
        instance.work_list.extend([
            DecodeBatch(spec=spec, requests=[waiter]),
            DecodeBatch(spec=spec, requests=[holder]),
        ])
        instance.kick()
        env.run(until=60.0)
        assert finished == [holder, waiter] and failed == []
        assert instance.left_on_cpu >= 1
        # The waiter's turn ended when its swap-in found no room: the
        # holder's first chunk starts at the end of the model load.
        step = holder.token_times[2] - holder.token_times[1]
        loaded = engine.scale_history[0].ended
        assert holder.token_times[1] - step == pytest.approx(loaded, abs=1e-9)
        assert waiter.token_times[1] > holder.finish_time

    def test_kv_larger_than_the_gpu_region_fails_at_swap_in(self):
        env = Environment()
        engine, instance, finished, failed = self.small_gpu_instance(env)
        huge = prefilled_request(env, engine, make_request(0, inp=4096, out=8))
        other = prefilled_request(env, engine, make_request(1, inp=128, out=8))
        instance.work_list.append(DecodeBatch(spec=huge.spec, requests=[huge, other]))
        instance.kick()
        env.run(until=60.0)
        assert failed == [huge] and finished == [other]
        assert huge.kv is None
        assert live_blocks(engine.gpu_kv_cache) == 0
        assert live_blocks(engine.kv.cpu_cache) == 0

    def test_no_room_to_grow_or_demote_fails_the_request(self):
        # A resident request crosses a block boundary with the GPU cache
        # full and the CPU cache full: it used to raise out of env.run.
        env = Environment()
        engine, instance, finished, failed = self.small_gpu_instance(
            env, cpu_kv_bytes=256 * MiB, cpu_slab=64 * MiB
        )
        request = self.resident(env, engine, make_request(0, inp=256, out=64))
        gpu_filler = fill(engine.gpu_kv_cache)
        fill(engine.kv.cpu_cache)
        instance.work_list.append(DecodeBatch(spec=request.spec, requests=[request]))
        instance.kick()
        env.run(until=30.0)
        assert failed == [request] and finished == []
        assert request.kv is None
        assert live_blocks(engine.gpu_kv_cache) == len(gpu_filler)
        assert instance.work_list == []

    def test_round_with_every_turn_ended_parks_until_a_gpu_free(self):
        # GPU blocks held by no request on the work list (as an in-flight
        # swap-out source of a failed request would be): the round ends
        # with the clock unmoved, and the task parks until the free.
        env = Environment()
        engine, instance, finished, failed = self.small_gpu_instance(env)
        orphan = fill(engine.gpu_kv_cache)
        request = prefilled_request(env, engine, make_request(0, inp=256, out=16))
        instance.work_list.append(DecodeBatch(spec=request.spec, requests=[request]))
        instance.kick()
        env.run(until=20.0)
        assert instance.rounds == 2  # the load round, then the parked one
        assert request.generated_tokens == 1

        def release():
            yield env.timeout(5.0)
            engine.gpu_kv_cache.free(orphan)

        env.process(release())
        env.run(until=60.0)
        assert finished == [request]
        assert request.token_times[1] > 25.0


class TestKnobRemoved:
    def test_tunables_have_no_retry_delay(self):
        assert not hasattr(Tunables(), "alloc_retry_delay")
        with pytest.raises(TypeError):
            Tunables(alloc_retry_delay=0.005)

    def test_retry_delay_env_key_is_unknown(self):
        with pytest.warns(RuntimeWarning, match="REPRO_TUNE_ALLOC_RETRY_DELAY"):
            RunSettings.from_env({"REPRO_TUNE_ALLOC_RETRY_DELAY": "0.005"})


# -- drain tests -------------------------------------------------------------
def small_cpu_kv_server(env, cpu_gib):
    """1 prefill + 2 decode instances on 3 H800s over a small CPU KV cache."""
    config = AegaeonConfig(
        prefill_instances=1,
        decode_instances=2,
        cpu_kv_cache_bytes=cpu_gib * GiB,
        cpu_slab_bytes=64 * MiB,
    )
    return AegaeonServer(env, Cluster.homogeneous(env, H800, 1, 3), config)


def exceeds_region(request, cache):
    """Whether ``request``'s prompt KV is more blocks than ``cache`` holds."""
    shape = kv_shape(request.spec)
    block_bytes = shape.block_bytes()
    blocks = -(-request.input_tokens // 16)
    return blocks > cache.slab_count * (cache.slab_bytes // block_bytes)


class TestDrains:
    def test_three_gib_cpu_cache_reproducer(self):
        # Used to finish 8 of 35 and end undrained after ~128k retry
        # wake-ups of the swap-out timers.
        env = Environment()
        server = small_cpu_kv_server(env, 3)
        checker = server.attach_invariants()
        trace = materialize_trace(market_mix(4), [0.2] * 4, sharegpt(), horizon=40.0, seed=4)
        result = server.serve(trace)
        checker.assert_clean()
        assert result.drained and result.unaccounted == 0
        assert result.finished_requests == len(trace) == 35
        assert env.steps_executed < 10_000

    @pytest.mark.parametrize("cpu_gib", [1, 2, 3, 4])
    def test_small_cpu_cache_grid_slice_drains(self, cpu_gib):
        # ShareGPT-ox2 at 0.4 req/s per model, seed 4: the heaviest
        # corner of the small-CPU-cache grid.
        env = Environment()
        server = small_cpu_kv_server(env, cpu_gib)
        checker = server.attach_invariants()
        trace = materialize_trace(
            market_mix(4), [0.4] * 4, sharegpt_ox2(), horizon=40.0, seed=4
        )
        result = server.serve(trace)
        checker.assert_clean()
        assert result.drained and result.unaccounted == 0
        failed = [r for r in server.proxy.requests if r.phase is Phase.FAILED]
        assert result.finished_requests + len(failed) == len(trace)
        # The only failures allowed are prompts the CPU cache can never hold.
        assert all(exceeds_region(r, server.cpu_kv_cache) for r in failed)
        assert sum(d.kept_resident for d in server.decode_instances) > 0

    def test_fig12c_aegaeon_ix2_32_models_drains(self):
        # Fig 12(c)'s heaviest Aegaeon point: 32 models x 0.5 req/s on
        # ShareGPT-ix2 (trace seed 3047).  A decode turn used to wait
        # for GPU space its own prefetched next batches held.
        env = Environment()
        system = build_system(SystemSpec(system="aegaeon", config=AegaeonConfig()), env)
        checker = system.attach_invariants()
        trace = materialize_trace(
            market_mix(32), [0.5] * 32, sharegpt_ix2(), 150.0, seed=3047
        )
        result = system.serve(trace)
        checker.assert_clean()
        assert result.drained and result.unaccounted == 0
        assert result.finished_requests == len(trace) == 2372
        assert result.end_time < 300.0
        assert sum(d.left_on_cpu for d in system.decode_instances) > 0
