"""Tests for the self-managed VRAM bump allocator (§5.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.memory import BumpAllocator

from .strategies import alloc_sizes

KiB = 1024


class TestBumpBasics:
    def test_alloc_advances_pointer(self):
        allocator = BumpAllocator(capacity=1024, alignment=1)
        a = allocator.alloc(100, tag="weights")
        b = allocator.alloc(50)
        assert a.offset == 0
        assert b.offset == 100
        assert allocator.used == 150

    def test_alignment(self):
        allocator = BumpAllocator(capacity=4096, alignment=256)
        allocator.alloc(100)
        b = allocator.alloc(10)
        assert b.offset == 256

    def test_exhaustion_raises(self):
        allocator = BumpAllocator(capacity=128, alignment=1)
        allocator.alloc(100)
        with pytest.raises(MemoryError):
            allocator.alloc(100)

    def test_zero_alloc_rejected(self):
        allocator = BumpAllocator(capacity=128)
        with pytest.raises(ValueError):
            allocator.alloc(0)

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            BumpAllocator(capacity=128, alignment=3)


class TestReset:
    def test_reset_to_zero_frees_everything(self):
        allocator = BumpAllocator(capacity=1024, alignment=1)
        a = allocator.alloc(100)
        b = allocator.alloc(100)
        dropped = allocator.reset()
        assert {d.offset for d in dropped} == {a.offset, b.offset}
        assert allocator.used == 0
        assert a.freed and b.freed

    def test_reset_to_mark_keeps_below(self):
        allocator = BumpAllocator(capacity=1024, alignment=1)
        keep = allocator.alloc(100, tag="keep")
        mark = allocator.used
        allocator.alloc(100, tag="drop")
        dropped = allocator.reset(mark)
        assert [d.tag for d in dropped] == ["drop"]
        assert not keep.freed
        assert allocator.used == mark

    def test_alloc_after_reset_reuses_space(self):
        allocator = BumpAllocator(capacity=256, alignment=1)
        allocator.alloc(200)
        allocator.reset()
        again = allocator.alloc(200)
        assert again.offset == 0

    def test_out_of_range_mark_rejected(self):
        allocator = BumpAllocator(capacity=256)
        with pytest.raises(ValueError):
            allocator.reset(mark=512)


class TestCompact:
    def test_prefetch_promotion(self):
        # Figure 9, step 3.b: running model at the front, prefetched model
        # behind it; after dropping the front model, compact the prefetch.
        allocator = BumpAllocator(capacity=64 * KiB, alignment=1)
        running = allocator.alloc(10 * KiB, tag="running")
        mark = allocator.used
        prefetched = allocator.alloc(20 * KiB, tag="prefetched")
        # Scale-down: drop the running model only.
        allocator._live.remove(running)
        allocator.compact_to_front(prefetched)
        assert prefetched.offset == 0
        assert allocator.used == 20 * KiB
        assert mark == 10 * KiB  # old mark is now stale, as expected

    def test_compact_with_other_live_allocations_rejected(self):
        allocator = BumpAllocator(capacity=1024, alignment=1)
        allocator.alloc(100)
        b = allocator.alloc(100)
        with pytest.raises(ValueError):
            allocator.compact_to_front(b)

    def test_compact_freed_allocation_rejected(self):
        allocator = BumpAllocator(capacity=1024, alignment=1)
        a = allocator.alloc(100)
        allocator.reset()
        with pytest.raises(ValueError):
            allocator.compact_to_front(a)


class TestBumpProperties:
    @given(sizes=st.lists(alloc_sizes, max_size=30))
    def test_no_overlap_and_in_bounds(self, sizes):
        allocator = BumpAllocator(capacity=100_000, alignment=64)
        allocations = []
        for size in sizes:
            try:
                allocations.append(allocator.alloc(size))
            except MemoryError:
                break
        intervals = sorted((a.offset, a.end) for a in allocations)
        for (start1, end1), (start2, _) in zip(intervals, intervals[1:]):
            assert end1 <= start2
        for start, end in intervals:
            assert 0 <= start and end <= allocator.capacity
            assert start % 64 == 0

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20),
        reset_at=st.integers(min_value=0, max_value=19),
    )
    def test_live_bytes_consistent_after_reset(self, sizes, reset_at):
        allocator = BumpAllocator(capacity=1_000_000, alignment=1)
        marks = []
        for size in sizes:
            marks.append(allocator.used)
            allocator.alloc(size)
        index = min(reset_at, len(marks) - 1)
        allocator.reset(marks[index])
        assert allocator.live_bytes == sum(sizes[:index])
        assert allocator.used == sum(sizes[:index])
