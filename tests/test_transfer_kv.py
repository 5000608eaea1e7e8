"""Tests for KV-cache transfer with fine-grained synchronization (§5.3)."""

import pytest

from repro.engine import Request
from repro.hardware import pcie_pair
from repro.memory import SlabAllocator
from repro.models import get_model, kv_shape
from repro.sim import Environment
from repro.transfer import KvTransferManager, MoveList, RequestKv
from repro.workload import TraceRequest

MiB = 1024**2
GiB = 1024**3


@pytest.fixture
def env():
    return Environment()


def make_manager(env, fine_grained=True, bandwidth=32e9):
    link = pcie_pair(env, bandwidth=bandwidth)
    gpu_cache = SlabAllocator(region_bytes=8 * GiB, slab_bytes=64 * MiB)
    cpu_cache = SlabAllocator(region_bytes=32 * GiB, slab_bytes=64 * MiB)
    return KvTransferManager(
        env, link, gpu_cache, cpu_cache, fine_grained=fine_grained
    )


def make_kv(request_id=0, tokens=512, model="Qwen-7B"):
    return RequestKv(
        request_id=request_id,
        shape=kv_shape(get_model(model)),
        tokens=tokens,
    )


class TestAllocation:
    def test_alloc_gpu_sets_blocks(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=100)
        manager.alloc_gpu(kv)
        assert kv.location == "gpu"
        assert len(kv.gpu_blocks) == kv.block_count == 7  # ceil(100/16)
        assert kv.ready_on_gpu()

    def test_double_alloc_rejected(self, env):
        manager = make_manager(env)
        kv = make_kv()
        manager.alloc_gpu(kv)
        with pytest.raises(ValueError):
            manager.alloc_gpu(kv)

    def test_free_gpu_returns_blocks(self, env):
        manager = make_manager(env)
        kv = make_kv()
        held_before = manager.gpu_cache.held_bytes
        manager.alloc_gpu(kv)
        manager.free_gpu(kv)
        assert manager.gpu_cache.held_bytes == held_before
        assert kv.location == "none"

    def test_grow_appends_blocks(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=16)
        manager.alloc_gpu(kv)
        kv.grow(16, manager.gpu_cache)
        assert kv.tokens == 32
        assert len(kv.gpu_blocks) == 2


class TestSwapOut:
    def test_moves_to_cpu_and_frees_gpu_async(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=1024)
        manager.alloc_gpu(kv)
        gpu_held = manager.gpu_cache.held_bytes
        event = manager.swap_out(kv)
        assert kv.location == "cpu"
        assert not event.query()
        # GPU blocks are freed only once the copy completes.
        assert manager.gpu_cache.held_bytes == gpu_held
        env.run(until=5.0)
        assert event.query()
        assert manager.gpu_cache.held_bytes == 0
        assert len(kv.cpu_blocks) == kv.block_count

    def test_swap_out_requires_gpu_residency(self, env):
        manager = make_manager(env)
        with pytest.raises(ValueError):
            manager.swap_out(make_kv())

    def test_transfer_duration_matches_bytes(self, env):
        manager = make_manager(env, bandwidth=1e9)
        kv = make_kv(tokens=1024)  # 1024 * 512KB = 512 MiB
        manager.alloc_gpu(kv)
        event = manager.swap_out(kv)
        env.run(until=60.0)
        expected = kv.nbytes / 1e9
        assert event.completed_at == pytest.approx(expected, rel=0.01)


class TestSwapIn:
    def test_round_trip(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=256)
        manager.alloc_gpu(kv)
        manager.swap_out(kv)
        env.run(until=2.0)
        manager.swap_in(kv)
        assert kv.location == "gpu"
        assert not kv.ready_on_gpu()  # transfer still in flight
        env.run(until=4.0)
        assert kv.ready_on_gpu()

    def test_rule2_swap_in_waits_for_swap_out(self, env):
        # Swap out and immediately swap in: the h2d copy must not begin
        # before the d2h copy has finished (rule ❷).
        manager = make_manager(env, bandwidth=1e9)
        kv = make_kv(tokens=1024)  # 512 MiB => ~0.54s each way
        manager.alloc_gpu(kv)
        out_event = manager.swap_out(kv)
        in_event = manager.swap_in(kv)
        env.run(until=30.0)
        assert in_event.completed_at >= out_event.completed_at + kv.nbytes / 1e9 * 0.99

    def test_rule3_cpu_blocks_deferred_until_copy_done(self, env):
        manager = make_manager(env, bandwidth=1e9)
        kv = make_kv(tokens=1024)
        manager.alloc_gpu(kv)
        manager.swap_out(kv)
        env.run(until=2.0)
        cpu_held = manager.cpu_cache.held_bytes
        manager.swap_in(kv)
        # CPU blocks are on the move list, not yet freed.
        assert manager.cpu_cache.held_bytes == cpu_held
        assert manager.move_list.pending_blocks == kv.block_count
        env.run(until=10.0)
        # Daemon reclaimed them after the copy completed.
        assert manager.move_list.pending_blocks == 0
        assert manager.cpu_cache.held_bytes == 0

    def test_wait_ready_charges_data_overhead(self, env):
        manager = make_manager(env, bandwidth=1e9)
        kv = make_kv(tokens=1024)
        manager.alloc_gpu(kv)
        manager.swap_out(kv)
        env.run(until=2.0)
        manager.swap_in(kv)
        request = Request(TraceRequest(kv.request_id, "Qwen-7B", 0.0, 1024, 8),
                          get_model("Qwen-7B"), kv=kv)

        def consumer():
            yield from manager.wait_ready(kv, request)
            return env.now

        finished = env.run(until=env.process(consumer()))
        assert finished > 2.0
        assert manager.stats.data_wait > 0
        # The whole wait is the request's KV sync time.
        assert request.kv_sync == manager.stats.data_wait


class TestMoveList:
    def test_reclaim_only_completed(self, env):
        manager = make_manager(env)
        cache = manager.cpu_cache
        move_list = MoveList()
        blocks = cache.alloc("s", 1 * MiB, 4)
        from repro.transfer import CudaEvent

        pending = CudaEvent(env)
        pending.recorded = True  # in flight, not complete
        move_list.add(blocks, pending)
        assert move_list.reclaim(cache) == 0
        pending._complete()
        assert move_list.reclaim(cache) == 4


class TestStatsAccounting:
    def test_counters(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=64)
        manager.alloc_gpu(kv)
        manager.swap_out(kv)
        env.run(until=1.0)
        manager.swap_in(kv)
        env.run(until=2.0)
        assert manager.stats.swap_out_count == 1
        assert manager.stats.swap_in_count == 1
        assert manager.stats.bytes_out == manager.stats.bytes_in == kv.nbytes
        assert manager.stats.control_overhead > 0


class TestMidFlightAbort:
    """Regression: aborting a request while its transfer is still in
    flight must leave the slab allocators' held/peak accounting exact —
    no leak, no double free, inflight sources fully drained."""

    def test_abort_during_swap_out(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=1024)
        manager.alloc_gpu(kv)
        gpu_peak = manager.gpu_cache.held_bytes
        manager.swap_out(kv)
        assert manager.inflight_sources  # copy still in flight
        manager.abort_request(kv)
        assert kv.location == "none" and not kv.gpu_blocks and not kv.cpu_blocks
        env.run(until=10.0)
        assert manager.gpu_cache.held_bytes == 0
        assert manager.cpu_cache.held_bytes == 0
        assert manager.gpu_cache.blocks_allocated == manager.gpu_cache.blocks_freed
        assert manager.cpu_cache.blocks_allocated == manager.cpu_cache.blocks_freed
        assert not manager.inflight_sources
        assert manager.move_list.pending_blocks == 0
        assert manager.gpu_cache.peak_held_bytes == gpu_peak

    def test_abort_during_swap_in(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=1024)
        manager.alloc_gpu(kv)
        manager.swap_out(kv)
        env.run(until=5.0)  # let the swap-out finish
        manager.swap_in(kv)
        manager.abort_request(kv)
        env.run(until=10.0)
        assert manager.gpu_cache.held_bytes == 0
        assert manager.cpu_cache.held_bytes == 0
        assert manager.gpu_cache.blocks_allocated == manager.gpu_cache.blocks_freed
        assert manager.cpu_cache.blocks_allocated == manager.cpu_cache.blocks_freed
        assert manager.move_list.pending_blocks == 0

    def test_abort_after_settled_swap_out_frees_inline(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=256)
        manager.alloc_gpu(kv)
        manager.swap_out(kv)
        env.run(until=5.0)
        held = manager.cpu_cache.held_bytes
        assert held > 0
        manager.abort_request(kv)
        # Transfer already completed: blocks free immediately, no
        # move-list detour needed.
        assert manager.cpu_cache.held_bytes == 0
        assert manager.move_list.pending_blocks == 0

    def test_abort_is_not_double_freeable(self, env):
        manager = make_manager(env)
        kv = make_kv(tokens=256)
        manager.alloc_gpu(kv)
        manager.abort_request(kv)
        # A second abort of the same (now empty) KV is a no-op.
        manager.abort_request(kv)
        assert manager.gpu_cache.held_bytes == 0
