"""Tests for model-weight loaders (§5.2, Figure 7 right)."""

import pytest

from repro.hardware import pcie_pair
from repro.memory import HostModelCache
from repro.models import get_model
from repro.sim import Environment, Interrupt
from repro.transfer import CudaStream, NaiveLoader, QuickLoader

GiB = 1024**3


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def link(env):
    return pcie_pair(env, bandwidth=32e9)


@pytest.fixture
def cache():
    return HostModelCache(capacity_bytes=640 * GiB)


class TestQuickLoader:
    def test_cached_load_hits_beta_bandwidth(self, env, link, cache):
        loader = QuickLoader(env, link, cache)
        model = get_model("Llama-13B")
        shard = model.weight_bytes // 2  # TP=2 shard, ~13 GB
        cache.insert(model.name, shard)

        def run():
            yield from loader.load(model.name, shard)
            return env.now

        elapsed = env.run(until=env.process(run()))
        # ~13 GB at 20 GB/s => ~0.65 s ("under one second", Figure 7).
        assert 0.5 < elapsed < 1.0

    def test_estimate_matches_simulation(self, env, link, cache):
        loader = QuickLoader(env, link, cache)
        nbytes = 14 * GiB
        cache.insert("m", nbytes)

        def run():
            yield from loader.load("m", nbytes)
            return env.now

        elapsed = env.run(until=env.process(run()))
        assert elapsed == pytest.approx(loader.load_time(nbytes), rel=0.05)

    def test_miss_fetches_from_remote(self, env, link, cache):
        loader = QuickLoader(env, link, cache, remote_bandwidth=1.5e9)
        nbytes = 15 * GiB

        def run():
            yield from loader.load("cold-model", nbytes)
            return env.now

        elapsed = env.run(until=env.process(run()))
        assert elapsed > nbytes / 1.5e9  # dominated by the registry fetch
        assert loader.remote_fetches == 1
        assert cache.contains("cold-model")

    def test_async_load_via_stream(self, env, link, cache):
        loader = QuickLoader(env, link, cache)
        nbytes = 10 * GiB
        cache.insert("m", nbytes)
        stream = CudaStream(env)

        event = loader.prefetch("m", nbytes, stream)
        # A plain call: every stall, copy and the record are queued
        # before the clock moves.
        chunks = -(-nbytes // loader.chunk_bytes)
        assert stream.pending_ops == 2 * chunks + 1
        assert not event.query()  # copies still queued on the stream
        env.run(until=60.0)
        assert event.query()
        assert event.completed_at == pytest.approx(
            loader.load_time(nbytes), rel=0.1
        )

    def test_prefetch_pins_until_the_last_chunk_lands(self, env, link, cache):
        loader = QuickLoader(env, link, cache)
        nbytes = 3 * GiB
        cache.insert("m", nbytes)
        unpinned_at = []
        unpin = cache.unpin

        def timed_unpin(model):
            unpinned_at.append(env.now)
            unpin(model)

        cache.unpin = timed_unpin
        event = loader.prefetch("m", nbytes, CudaStream(env))
        assert cache._entries["m"].pins == 1
        landed = loader.load_time(nbytes)
        env.run(until=landed * 0.9)  # the last chunk is still queued
        assert cache._entries["m"].pins == 1 and not unpinned_at
        env.run()
        assert cache._entries["m"].pins == 0
        assert unpinned_at == [event.completed_at]
        assert link.h2d.bytes_moved == nbytes

    def test_uncontended_prefetch_costs_one_step(self, env, link, cache):
        # Nothing else claims the link, so the lane retires all three
        # chunks' stalls and copies with one run timeout; nothing waits
        # on the completion, so it schedules nothing.
        cache.insert("m", 3 * GiB)
        loader = QuickLoader(env, link, cache)
        stream = CudaStream(env)  # its lane's start event is one step
        event = loader.prefetch("m", 3 * GiB, stream)
        env.run()
        assert event.query()
        assert env.steps_executed == 1 + 1
        assert stream.ops_executed == 2 * 3 + 1 and stream.pending_ops == 0
        assert link.h2d.bytes_moved == 3 * GiB

    def test_a_claim_splits_a_prefetch_run(self, env, link, cache):
        # A claim in chunk 1's stall splits the run there: the stall
        # keeps its own timeout, chunk 1's copy goes op by op (its
        # dispatch inlines, its copy timeout is a step), and chunk 2's
        # stall finds the link free again and forms a second run.  The
        # split costs the handed stall and the copy over the one run
        # timeout it cancels: two steps.
        cache.insert("m", 3 * GiB)
        loader = QuickLoader(env, link, cache)
        h2d = link.h2d
        stall = loader._stall_per_chunk()
        chunk_end = stall + h2d.transfer_time(loader.chunk_bytes)

        def claim():
            yield env.timeout(chunk_end + stall / 2)
            yield from h2d.transfer(1024)

        env.process(claim())
        claimer_steps = 4  # init, its timeout, its copy, its end
        event = loader.prefetch("m", 3 * GiB, CudaStream(env))
        env.run()
        assert event.completed_at == pytest.approx(3 * chunk_end)
        assert env.steps_executed == claimer_steps + 1 + 1 + 2
        assert h2d.bytes_moved == 3 * GiB + 1024

    def test_prefetch_of_an_uncached_model_raises(self, env, link, cache):
        loader = QuickLoader(env, link, cache)
        stream = CudaStream(env)
        with pytest.raises(LookupError):
            loader.prefetch("cold-model", GiB, stream)
        assert stream.pending_ops == 0
        assert loader.remote_fetches == 0

    def test_pin_released_after_load(self, env, link, cache):
        loader = QuickLoader(env, link, cache)
        cache.insert("m", 1 * GiB)

        def run():
            yield from loader.load("m", 1 * GiB)

        env.process(run())
        env.run(until=10.0)
        cache.pin("m")
        cache.unpin("m")  # would raise if load leaked a pin imbalance

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the prefetch path copies a full chunk for the "
        "last, partial one and does not scale its stall",
    )
    def test_prefetch_moves_the_bytes_a_synchronous_load_moves(
        self, env, link, cache
    ):
        nbytes = 2 * GiB + GiB // 2  # a partial last chunk
        cache.insert("m", nbytes)
        loader = QuickLoader(env, link, cache)

        def prefetch():
            yield loader.prefetch("m", nbytes, CudaStream(env)).wait()
            return env.now

        prefetched_at = env.run(until=env.process(prefetch()))
        moved = link.h2d.bytes_moved
        assert moved == nbytes

        sync_env = Environment()
        sync_link = pcie_pair(sync_env, bandwidth=32e9)
        sync_loader = QuickLoader(sync_env, sync_link, cache)

        def load():
            yield from sync_loader.load("m", nbytes)
            return sync_env.now

        assert prefetched_at == pytest.approx(sync_env.run(until=sync_env.process(load())))

    def test_uncontended_synchronous_load_costs_one_step(self, env, link, cache):
        # One run timeout for all three chunks, no child process.
        cache.insert("m", 3 * GiB)
        loader = QuickLoader(env, link, cache)

        def run():
            yield from loader.load("m", 3 * GiB)

        env.run(until=env.process(run()))
        assert 3 * GiB // loader.chunk_bytes == 3
        assert env.steps_executed == 2 + 1  # plus init and end
        assert link.h2d.bytes_moved == 3 * GiB

    def test_a_claim_splits_a_synchronous_run(self, env, link, cache):
        # A claim in chunk 1's copy splits the run there: the copy keeps
        # the link until its own end (one step), and chunk 2's stall,
        # starting while the claim holds the link, goes op by op: a
        # stall timeout, then its copy.  Three steps where the run had
        # one.
        cache.insert("m", 3 * GiB)
        loader = QuickLoader(env, link, cache)
        h2d = link.h2d
        stall = loader._stall_per_chunk()
        copy = h2d.transfer_time(loader.chunk_bytes)
        claimed = []

        def claim():
            yield env.timeout(stall + copy + stall + copy / 2)
            yield from h2d.transfer(1024)
            claimed.append(env.now)

        def run():
            yield from loader.load("m", 3 * GiB)
            return env.now

        env.process(claim())
        claimer_steps = 5  # init, its timeout, its grant, its copy, its end
        end = env.run(until=env.process(run()))
        assert claimed == [pytest.approx(2 * (stall + copy) + h2d.transfer_time(1024))]
        assert end == pytest.approx(3 * (stall + copy))
        assert env.steps_executed == claimer_steps + 2 + 3
        assert h2d.bytes_moved == 3 * GiB + 1024

    def test_a_split_synchronous_load_forms_a_new_run(self, env, link, cache):
        # A claim in chunk 0's stall splits the run there, and its copy
        # ends before the stall does: the stall keeps its own timeout,
        # chunk 0's copy goes op by op, and chunk 1's stall finds the
        # link free and forms a run for chunks 1 and 2.
        cache.insert("m", 3 * GiB)
        loader = QuickLoader(env, link, cache)
        h2d = link.h2d

        def claim():
            yield env.timeout(loader._stall_per_chunk() / 2)
            yield from h2d.transfer(1024)

        def run():
            yield from loader.load("m", 3 * GiB)

        env.process(claim())
        claimer_steps = 4  # init, its timeout, its copy, its end
        env.run(until=env.process(run()))
        assert env.steps_executed == claimer_steps + 2 + 3
        assert h2d.bytes_moved == 3 * GiB + 1024

    def test_invalid_beta_rejected(self, env, link, cache):
        with pytest.raises(ValueError):
            QuickLoader(env, link, cache, beta=0.0)


class TestNaiveLoader:
    def test_13b_shard_takes_4_6_seconds(self, env, link):
        # Figure 7 (right): LLaMA-13B at TP=2 via the naive path takes
        # ~4.6 s, i.e. 2.83 GB/s.
        loader = NaiveLoader(env, link)
        model = get_model("Llama-13B")
        shard = model.weight_bytes // 2

        def run():
            yield from loader.load(model.name, shard)
            return env.now

        elapsed = env.run(until=env.process(run()))
        assert 4.2 < elapsed < 5.0

    def test_quick_loader_beats_naive_by_factor(self, env, link, cache):
        quick = QuickLoader(env, link, cache)
        naive = NaiveLoader(env, link)
        nbytes = 13 * GiB
        assert naive.load_time(nbytes) / quick.load_time(nbytes) > 5.0


class TestInterruptedLoad:
    def test_interrupted_while_queued_the_chunk_still_copies(self, env, link, cache):
        # The loader is interrupted while its chunk waits for the link:
        # the claim stands, and the chunk copies once the link frees.
        loader = QuickLoader(env, link, cache)
        cache.insert("m", GiB)
        h2d = link.h2d
        assert h2d.acquire() is None  # someone else holds the link

        def load():
            try:
                yield from loader.load("m", GiB)
            except Interrupt:
                pass

        process = env.process(load())
        env.run(until=0.1)
        assert h2d.queue_depth == 1
        process.interrupt("instance failure")
        env.run(until=0.2)
        h2d.release()
        env.run()
        assert h2d.bytes_moved == loader.chunk_bytes
        assert env.now == pytest.approx(0.2 + h2d.transfer_time(loader.chunk_bytes))
        assert h2d.acquire() is None

    def test_failed_instance_finishes_its_in_flight_chunk(self):
        # An instance that dies during a synchronous model load stops
        # issuing chunks, but the chunk already on the link keeps it
        # until its copy ends and counts its bytes (the DMA is issued).
        from repro.core import PrefillInstance
        from repro.core.prefill_sched import PrefillGroup
        from repro.engine import AegaeonEngine, Request
        from repro.hardware import H800, Node
        from repro.memory import SlabAllocator
        from repro.workload import TraceRequest

        env = Environment()
        node = Node(env, H800, gpu_count=1)
        cache = HostModelCache(640 * GiB)
        spec = get_model("Qwen-7B")
        cache.insert(spec.name, spec.weight_bytes)
        engine = AegaeonEngine(
            env, node, node.gpus, cache, SlabAllocator(320 * GiB, 256 * 1024**2),
            pre_initialized=True,
        )
        loader = engine.quick_loader
        h2d = loader.link.h2d
        pinned, sampled, releases = [], [], []
        transfer_time = h2d.transfer_time
        release = h2d.release
        pin = cache.pin

        def timed_pin(model):
            pinned.append(env.now)  # the chunks start here
            pin(model)

        def timed_transfer(nbytes):
            sampled.append(env.now)
            return transfer_time(nbytes)

        def timed_release():
            releases.append(env.now)
            release()

        cache.pin = timed_pin
        h2d.transfer_time = timed_transfer
        h2d.release = timed_release
        instance = PrefillInstance(env, engine, lambda request: None)
        group = PrefillGroup(spec=spec)
        group.add(Request(
            trace=TraceRequest(request_id=0, model=spec.name, arrival=0.0,
                               input_tokens=256, output_tokens=8),
            spec=spec,
        ))
        instance.groups.append(group)
        instance.kick()
        while not pinned:
            env.run(until=env.now + 0.01)
        chunk = loader.chunk_bytes
        duration = transfer_time(chunk)
        stall = loader._stall_per_chunk()
        # Chunk 3's copy starts where the chunk chain puts it.
        start = pinned[0]
        for _ in range(2):
            start = start + stall + duration
        start += stall
        assert start + duration < pinned[0] + loader.load_time(spec.weight_bytes)
        failed_at = start + duration / 2
        env.run(until=failed_at)
        instance.fail()
        env.run(until=failed_at)  # the interrupt is delivered
        assert h2d.bytes_moved == 2 * chunk
        env.run(until=start + 10 * duration)
        assert all(at < failed_at for at in sampled)  # no later chunk was issued
        assert h2d.bytes_moved == 3 * chunk
        assert h2d.busy_time == 3 * duration
        assert releases[-1] == start + duration
        assert h2d.acquire() is None  # the link is free again
        assert engine.current_model is None
