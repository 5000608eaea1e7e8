"""Tests for the paged block manager and continuous batcher."""

import dataclasses

import pytest

from repro.core.batcher import BatcherInstanceBase
from repro.engine import BatchingPolicy, BlockManager, ContinuousBatcher, Phase, Request
from repro.models import get_model, kv_block_bytes
from repro.sim import Environment
from repro.workload import TraceRequest

GiB = 1024**3


def make_request(request_id=0, model="Qwen-7B", inp=128, out=64, arrival=0.0):
    trace = TraceRequest(
        request_id=request_id,
        model=model,
        arrival=arrival,
        input_tokens=inp,
        output_tokens=out,
    )
    return Request(trace=trace, spec=get_model(model))


class TestBlockManager:
    def test_pool_sizing(self):
        spec = get_model("Qwen-7B")
        manager = BlockManager(pool_bytes=8 * GiB, model=spec)
        assert manager.total_blocks == 8 * GiB // kv_block_bytes(spec)

    def test_allocate_and_release(self):
        manager = BlockManager(8 * GiB, get_model("Qwen-7B"))
        manager.allocate(request_id=1, tokens=100)
        assert manager.holds(1)
        held = manager.total_blocks - manager.free_blocks
        assert held == manager.blocks_needed(100)
        manager.release(1)
        assert manager.free_blocks == manager.total_blocks

    def test_append_tokens_grows_at_block_boundary(self):
        manager = BlockManager(8 * GiB, get_model("Qwen-7B"), block_tokens=16)
        manager.allocate(1, tokens=16)
        before = manager.free_blocks
        manager.append_tokens(1, old_tokens=16, new_tokens=1)
        assert manager.free_blocks == before - 1
        manager.append_tokens(1, old_tokens=17, new_tokens=1)
        assert manager.free_blocks == before - 1  # same block

    def test_exhaustion(self):
        spec = get_model("Qwen-7B")
        manager = BlockManager(kv_block_bytes(spec) * 4, spec)
        manager.allocate(1, tokens=16 * 4)
        with pytest.raises(MemoryError):
            manager.allocate(2, tokens=1)

    def test_double_allocate_rejected(self):
        manager = BlockManager(8 * GiB, get_model("Qwen-7B"))
        manager.allocate(1, tokens=10)
        with pytest.raises(ValueError):
            manager.allocate(1, tokens=10)

    def test_unknown_release_rejected(self):
        manager = BlockManager(8 * GiB, get_model("Qwen-7B"))
        with pytest.raises(KeyError):
            manager.release(99)

    def test_tiny_pool_rejected(self):
        with pytest.raises(MemoryError):
            BlockManager(pool_bytes=1, model=get_model("Qwen-7B"))


class TestContinuousBatcher:
    def make(self, pool_gib=8, **policy):
        manager = BlockManager(pool_gib * GiB, get_model("Qwen-7B"))
        return ContinuousBatcher(manager, BatchingPolicy(**policy))

    def test_fcfs_admission(self):
        batcher = self.make()
        for request_id in range(3):
            batcher.enqueue(make_request(request_id))
        admitted = batcher.admit_prefills()
        assert [r.request_id for r in admitted] == [0, 1, 2]

    def test_batch_size_cap(self):
        batcher = self.make(max_batch_size=2)
        for request_id in range(4):
            batcher.enqueue(make_request(request_id))
        assert len(batcher.admit_prefills()) == 2

    def test_token_budget_cap(self):
        batcher = self.make(max_prefill_tokens=1000)
        batcher.enqueue(make_request(0, inp=800))
        batcher.enqueue(make_request(1, inp=800))
        admitted = batcher.admit_prefills()
        assert len(admitted) == 1  # second exceeds the budget

    def test_first_request_always_admitted_even_if_large(self):
        batcher = self.make(max_prefill_tokens=100)
        batcher.enqueue(make_request(0, inp=5000))
        assert len(batcher.admit_prefills()) == 1

    def test_kv_pool_blocks_admission(self):
        spec = get_model("Qwen-7B")
        manager = BlockManager(kv_block_bytes(spec) * 8, spec)
        batcher = ContinuousBatcher(manager, BatchingPolicy())
        batcher.enqueue(make_request(0, inp=16 * 7))  # fills the pool (7 blocks + 1 for the next token)
        batcher.enqueue(make_request(1, inp=16))
        admitted = batcher.admit_prefills()
        assert [r.request_id for r in admitted] == [0]
        assert len(batcher.waiting) == 1

    def test_retire_releases_blocks(self):
        batcher = self.make()
        request = make_request(0, out=1)
        batcher.enqueue(request)
        admitted = batcher.admit_prefills()
        batcher.start_decoding(admitted)
        request.record_tokens([1.0])
        batcher.retire(request)
        assert not batcher.has_work
        assert batcher.block_manager.free_blocks == batcher.block_manager.total_blocks

    def test_decode_chunk_preempts_on_pressure(self):
        spec = get_model("Qwen-7B")
        manager = BlockManager(kv_block_bytes(spec) * 6, spec, block_tokens=16)
        batcher = ContinuousBatcher(manager, BatchingPolicy())
        old = make_request(0, inp=16, out=32)
        new = make_request(1, inp=16, out=32)
        for request in (old, new):
            batcher.enqueue(request)
        batcher.start_decoding(batcher.admit_prefills())
        # Fill remaining blocks so any growth must preempt.
        manager.allocate(99, tokens=16 * 2)
        instance = BatcherInstanceBase(Environment(), "batcher", lambda r: None)
        # A 17-step chunk grows each context past a block boundary: the
        # first request fails to grow and frees its blocks for the next.
        instance._account_decode_chunk(batcher, [old, new], 0.0, 0.01, 17)
        assert old.phase is Phase.QUEUED
        assert batcher.waiting == [old]
        assert batcher.running == [new]
        assert not manager.holds(0) and manager.holds(1)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)


class TestRequestIdentity:
    def test_equal_traces_make_distinct_requests(self):
        first, second = make_request(request_id=7), make_request(request_id=7)
        assert first.trace == second.trace
        assert first != second
        batch = [first, second]
        batch.remove(second)
        assert batch == [first] and batch[0] is first
        assert second not in batch
        assert len({first, second}) == 2  # hashable, by identity

    def test_request_id_is_copied_from_the_trace(self):
        request = make_request(request_id=42)
        assert request.request_id == 42
        assert "request_id" in {f.name for f in dataclasses.fields(request)}
