"""Tests for the slab-allocated unified KV cache (§5.2, Figure 16)."""

from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import SlabAllocator
from repro.memory.slab import KvExtent
from repro.models import get_model, kv_shape

from . import reference_slab
from .strategies import MiB, kv_owner_operations, slab_operations


@pytest.fixture
def allocator():
    # 64 slabs of 16 MiB = 1 GiB region.
    return SlabAllocator(region_bytes=1024 * MiB, slab_bytes=16 * MiB)


class TestSlabBasics:
    def test_alloc_returns_distinct_blocks(self, allocator):
        # Distinct blocks: the runs add up to the count asked for, and no
        # slab gives out more blocks than it holds.
        extent = allocator.alloc("shape-a", block_bytes=1 * MiB, count=20)
        assert extent.shape == "shape-a"
        assert len(extent) == sum(n for _, n in extent.runs) == 20
        per_slab = Counter()
        for slab_index, n in extent.runs:
            per_slab[slab_index] += n
        assert all(n <= 16 for n in per_slab.values())
        assert len(per_slab) == 2

    def test_blocks_fill_slab_before_acquiring_new(self, allocator):
        blocks = allocator.alloc("a", block_bytes=1 * MiB, count=16)
        assert blocks.runs == [(blocks.runs[0][0], 16)]
        more = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        assert [index for index, _ in more.runs] != [blocks.runs[0][0]]

    def test_free_returns_slab_to_pool(self, allocator):
        initial_free = allocator.free_slab_count
        blocks = allocator.alloc("a", block_bytes=1 * MiB, count=16)
        assert allocator.free_slab_count == initial_free - 1
        allocator.free(blocks)
        assert allocator.free_slab_count == initial_free

    def test_freed_slab_reusable_by_other_shape(self, allocator):
        blocks = allocator.alloc("a", block_bytes=16 * MiB, count=64)
        with pytest.raises(MemoryError):
            allocator.alloc("b", block_bytes=1 * MiB, count=1)
        allocator.free(blocks)
        allocator.alloc("b", block_bytes=1 * MiB, count=64 * 16)

    def test_double_free_detected(self, allocator):
        blocks = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        allocator.free(blocks)
        with pytest.raises(ValueError):
            allocator.free(blocks)

    def test_stale_double_free_detected(self, allocator):
        # The freed blocks are re-issued before the second free: freeing
        # the old handle again must not hand the new owner's blocks back.
        first = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        allocator.free(first)
        second = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            allocator.free(first)
        assert allocator.shape_stats()[0].used_blocks == 1
        allocator.free(second)
        assert allocator.free_slab_count == allocator.slab_count

    def test_free_of_other_allocators_extent_rejected(self, allocator):
        other = SlabAllocator(region_bytes=1024 * MiB, slab_bytes=16 * MiB)
        foreign = other.alloc("a", block_bytes=1 * MiB, count=1)
        mine = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            allocator.free(foreign)
        with pytest.raises(ValueError):
            allocator.grow(foreign, 1)
        assert foreign.live and mine.live
        assert allocator.shape_stats()[0].used_blocks == 1

    def test_grow_appends_in_place(self, allocator):
        extent = allocator.alloc("a", block_bytes=1 * MiB, count=2)
        runs = extent.runs
        allocator.grow(extent, 3)
        assert extent.runs is runs and len(extent) == 5
        assert extent.runs == [(extent.runs[0][0], 5)]  # merged on one slab
        assert allocator.shape_stats()[0].used_blocks == 5
        allocator.free(extent)
        assert allocator.free_slab_count == allocator.slab_count

    def test_grow_of_dead_or_foreign_extent_rejected(self, allocator):
        other = SlabAllocator(region_bytes=1024 * MiB, slab_bytes=16 * MiB)
        foreign = other.alloc("a", block_bytes=1 * MiB, count=1)
        dead = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        allocator.free(dead)
        for extent in (foreign, dead):
            with pytest.raises(ValueError):
                allocator.grow(extent, 1)
        live = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            allocator.grow(live, 0)
        assert len(live) == 1 and allocator.blocks_allocated == 2

    def test_conflicting_block_bytes_rejected(self, allocator):
        allocator.alloc("a", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            allocator.alloc("a", block_bytes=2 * MiB, count=1)

    def test_all_or_nothing_on_exhaustion(self, allocator):
        held = allocator.alloc("a", block_bytes=16 * MiB, count=63)
        with pytest.raises(MemoryError):
            allocator.alloc("b", block_bytes=16 * MiB, count=2)
        # The failed alloc must not leak partial blocks.
        assert allocator.free_slab_count == 1
        allocator.free(held)

    def test_region_truncated_to_slab_multiple(self):
        allocator = SlabAllocator(region_bytes=100 * MiB, slab_bytes=16 * MiB)
        assert allocator.slab_count == 6
        assert allocator.region_bytes == 96 * MiB


class TestRealKvShapes:
    """Exercise the allocator with the paper's actual KV shapes."""

    def test_mixed_models_coexist(self, allocator):
        shapes = {
            name: kv_shape(get_model(name))
            for name in ["Qwen-7B", "InternLM2.5-7B", "Llama-13B"]
        }
        held = {}
        for name, shape in shapes.items():
            held[name] = allocator.alloc(shape, shape.block_bytes(16), count=3)
        stats = {str(s.shape): s for s in allocator.shape_stats()}
        assert len(stats) == 3
        for name, blocks in held.items():
            allocator.free(blocks)
        assert allocator.held_bytes == 0

    def test_fragmentation_below_paper_bound(self, allocator):
        # Figure 16: overall fragmentation stays below ~20% in steady
        # state for realistic block sizes.
        shape = kv_shape(get_model("Qwen-7B"))
        block = shape.block_bytes(16)  # 8 MiB
        allocator.alloc(shape, block, count=100)
        assert allocator.overall_fragmentation() < 0.2


class TestSlabProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations=slab_operations(shapes=4, max_blocks=12, max_size=60))
    def test_accounting_invariants(self, operations):
        allocator = SlabAllocator(region_bytes=64 * MiB, slab_bytes=4 * MiB)
        block_bytes = {0: 256 * 1024, 1: 512 * 1024, 2: 1 * MiB, 3: 4 * MiB}
        live: dict[int, list] = {0: [], 1: [], 2: [], 3: []}
        for action, shape_id, count in operations:
            if action == "alloc":
                try:
                    extent = allocator.alloc(shape_id, block_bytes[shape_id], count)
                except MemoryError:
                    continue
                live[shape_id].append(extent)
            elif live[shape_id]:
                taken = live[shape_id][:count]
                del live[shape_id][:count]
                for extent in taken:
                    allocator.free(extent)
            # Invariants after every step.  No double allocation: the
            # live runs on each slab add up to exactly what the slab
            # holds, never more than its capacity.
            held = Counter()
            for group in live.values():
                for extent in group:
                    assert len(extent) == sum(n for _, n in extent.runs)
                    for slab_index, n in extent.runs:
                        held[slab_index] += n
            # Every slab index, built or not: one never built holds nothing.
            for index, slab in enumerate(allocator._slabs):
                _, used = _slab_state(slab)
                assert held[index] == used
                assert slab is None or used <= slab.blocks_per_slab
            live_bytes = sum(
                len(extent) * block_bytes[shape_id]
                for shape_id, group in live.items()
                for extent in group
            )
            assert live_bytes <= allocator.held_bytes <= allocator.region_bytes
            for stats in allocator.shape_stats():
                assert stats.used_blocks == sum(map(len, live[stats.shape]))
                assert 0.0 <= stats.fragmentation <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(min_value=1, max_value=256))
    def test_alloc_free_roundtrip_restores_state(self, count):
        allocator = SlabAllocator(region_bytes=64 * MiB, slab_bytes=4 * MiB)
        try:
            blocks = allocator.alloc("x", 256 * 1024, count)
        except MemoryError:
            return
        allocator.free(blocks)
        assert allocator.free_slab_count == allocator.slab_count
        assert allocator.overall_fragmentation() == 0.0


def _runs_of(blocks):
    """Run-length encode a per-block list by slab, in order."""
    runs = []
    for block in blocks:
        if runs and runs[-1][0] == block.slab_index:
            runs[-1][1] += 1
        else:
            runs.append([block.slab_index, 1])
    return [tuple(run) for run in runs]


def _slab_state(slab):
    """``(shape, used_count)``; a slab never built reads ``(None, 0)``."""
    return (None, 0) if slab is None else (slab.shape, slab.used_count)


def _built(allocator):
    """How many ``Slab`` objects the allocator has built so far."""
    return sum(slab is not None for slab in allocator._slabs)


def _allocator_state(allocator, block_bytes):
    return (
        [allocator.capacity_for(shape, size) for shape, size in block_bytes.items()],
        allocator.free_slab_count,
        allocator.held_bytes,
        allocator.peak_held_bytes,
        allocator.blocks_allocated,
        allocator.blocks_freed,
        [astuple(stats) for stats in allocator.shape_stats()],
        [_slab_state(slab) for slab in allocator._slabs],
    )


class TestReferenceDifferential:
    """The extent allocator against the per-block oracle in
    ``reference_slab``: same operations, same state after every one."""

    @settings(max_examples=150, deadline=None)
    @given(operations=kv_owner_operations())
    def test_matches_per_block_reference(self, operations):
        # 12 slabs of 4 MiB; two block sizes leave a slab tail unused.
        block_bytes = {0: 256 * 1024, 1: 768 * 1024, 2: 1536 * 1024, 3: 4 * MiB}
        extents = SlabAllocator(region_bytes=50 * MiB, slab_bytes=4 * MiB)
        blocks = reference_slab.SlabAllocator(region_bytes=50 * MiB, slab_bytes=4 * MiB)
        owners: list[tuple[int, object, list]] = []

        def both_alloc(shape_id, count):
            outcomes = []
            for allocator in (extents, blocks):
                try:
                    outcomes.append(
                        allocator.alloc(shape_id, block_bytes[shape_id], count)
                    )
                except MemoryError:
                    outcomes.append(None)
            assert (outcomes[0] is None) == (outcomes[1] is None)
            return outcomes

        for action, shape_id, count, pick in operations:
            if action == "alloc":
                extent, block_list = both_alloc(shape_id, count)
                if extent is not None:
                    owners.append((shape_id, extent, block_list))
            elif owners and action == "grow":
                shape_id, extent, block_list = owners[pick % len(owners)]
                try:
                    block_list += blocks.alloc(shape_id, block_bytes[shape_id], count)
                except MemoryError:
                    runs = list(extent.runs)
                    with pytest.raises(MemoryError):
                        extents.grow(extent, count)
                    assert extent.runs == runs  # all-or-nothing
                else:
                    extents.grow(extent, count)
            elif owners:
                _, extent, block_list = owners.pop(pick % len(owners))
                extents.free(extent)
                blocks.free(block_list)
            assert _allocator_state(extents, block_bytes) == _allocator_state(
                blocks, block_bytes
            )
            for _, extent, block_list in owners:
                assert extent.runs == _runs_of(block_list)
            assert _built(extents) == extents.peak_held_bytes // extents.slab_bytes


class TestGrowDifferential:
    """``grow`` against the per-block oracle, one case per path.

    ``grow`` takes the blocks itself when the front of the shape's
    availability list is a live slab that keeps a free block after the
    grow, and defers to ``_take`` otherwise; both must make the slab
    choices a per-block ``alloc`` of the same count makes.  Slabs hold
    four 1 MiB blocks, and new slabs come off the end of the pool.
    """

    BLOCK = {0: MiB}

    def _pair(self):
        extents = SlabAllocator(region_bytes=24 * MiB, slab_bytes=4 * MiB)
        takes = []
        take = extents._take

        def counted_take(*args):
            takes.append(args[2])
            take(*args)

        extents._take = counted_take
        blocks = reference_slab.SlabAllocator(region_bytes=24 * MiB, slab_bytes=4 * MiB)
        return extents, blocks, takes

    def _alloc(self, pair, count):
        extents, blocks, _ = pair
        return extents.alloc(0, MiB, count), blocks.alloc(0, MiB, count)

    def _grow(self, pair, owner, count):
        extents, blocks, takes = pair
        before = len(takes)
        extents.grow(owner[0], count)
        owner[1].extend(blocks.alloc(0, MiB, count))
        self._check(pair, owner)
        return len(takes) > before  # True: the grow went through _take

    def _free(self, pair, owner):
        pair[0].free(owner[0])
        pair[1].free(owner[1])

    def _check(self, pair, *owners):
        extents, blocks, _ = pair
        assert _allocator_state(extents, self.BLOCK) == _allocator_state(
            blocks, self.BLOCK
        )
        for extent, block_list in owners:
            assert extent.runs == _runs_of(block_list)
            assert len(extent) == len(block_list)

    def test_front_slab_is_the_extents_last_slab(self):
        pair = self._pair()
        owner = self._alloc(pair, 1)
        assert not self._grow(pair, owner, 2)
        assert owner[0].runs == [(5, 3)]

    def test_front_slab_is_another_slab(self):
        pair = self._pair()
        a = self._alloc(pair, 3)  # slab 5
        b = self._alloc(pair, 2)  # fills slab 5, then slab 4
        assert pair[0]._slabs[5]._rec.avail == [4]
        assert not self._grow(pair, a, 1)
        assert a[0].runs == [(5, 3), (4, 1)]
        self._check(pair, a, b)

    def test_stale_front_entry_falls_back(self):
        pair = self._pair()
        d = self._alloc(pair, 1)  # slab 5
        b = self._alloc(pair, 3)  # fills slab 5
        e = self._alloc(pair, 2)  # slab 4
        self._free(pair, e)  # slab 4 released, its entry left stale
        self._free(pair, b)  # slab 5 listed again, behind it
        assert pair[0]._slabs[5]._rec.avail == [4, 5]
        assert self._grow(pair, d, 1)
        assert d[0].runs == [(5, 2)]
        assert pair[0]._slabs[5]._rec.avail == [5]

    def test_grow_that_fills_the_front_slab_falls_back(self):
        pair = self._pair()
        owner = self._alloc(pair, 1)
        assert self._grow(pair, owner, 3)  # exactly the slab's free blocks
        assert owner[0].runs == [(5, 4)]
        assert pair[0]._slabs[5]._avail_shape is None  # full: delisted
        assert pair[0]._slabs[5]._rec.avail == []

    def test_grow_across_a_slab_boundary_falls_back(self):
        pair = self._pair()
        owner = self._alloc(pair, 3)
        assert self._grow(pair, owner, 3)
        assert owner[0].runs == [(5, 4), (4, 2)]
        self._free(pair, owner)
        self._check(pair)


class TestLazyFreePool:
    """Slabs are built on first use, and the lazy pool pops in the
    eager pool's order: the last-released slab first, then the highest
    never-used index.  Slabs hold four 1 MiB blocks, checked against
    the eager per-block oracle after every step."""

    BLOCK = {0: MiB}

    def _pair(self, slabs):
        region = slabs * 4 * MiB
        return (
            SlabAllocator(region_bytes=region, slab_bytes=4 * MiB),
            reference_slab.SlabAllocator(region_bytes=region, slab_bytes=4 * MiB),
        )

    def _alloc(self, pair, count):
        extents, blocks = pair
        try:
            extent = extents.alloc(0, MiB, count)
        except MemoryError:
            with pytest.raises(MemoryError):
                blocks.alloc(0, MiB, count)
            self._check(pair)
            return None
        block_list = blocks.alloc(0, MiB, count)
        assert extent.runs == _runs_of(block_list)
        self._check(pair)
        return extent, block_list

    def _free(self, pair, owner):
        pair[0].free(owner[0])
        pair[1].free(owner[1])
        self._check(pair)

    def _check(self, pair):
        extents, blocks = pair
        assert _allocator_state(extents, self.BLOCK) == _allocator_state(
            blocks, self.BLOCK
        )
        assert _built(extents) == extents.peak_held_bytes // extents.slab_bytes

    def test_fresh_region_builds_no_slab(self):
        # 4096 slabs of 4 MiB: a 16 GiB host cache, as a run sees it.
        allocator = SlabAllocator(region_bytes=16 * 1024 * MiB, slab_bytes=4 * MiB)
        assert allocator.slab_count == 4096
        assert _built(allocator) == 0
        assert allocator.free_slab_count == 4096
        assert allocator.capacity_for("a", MiB) == 4096 * 4
        extent = allocator.alloc("a", MiB, 6)
        assert extent.runs == [(4095, 4), (4094, 2)]
        assert _built(allocator) == 2
        allocator.free(extent)
        assert _built(allocator) == 2
        assert allocator.free_slab_count == 4096

    def test_released_slabs_pop_before_never_used_ones(self):
        pair = self._pair(4)
        a = self._alloc(pair, 4)  # slab 3
        b = self._alloc(pair, 4)  # slab 2
        self._free(pair, a)  # released: [3]; never used: 0, 1
        c = self._alloc(pair, 4)
        assert c[0].runs == [(3, 4)]
        self._free(pair, b)
        self._free(pair, c)  # released: [2, 3]
        d = self._alloc(pair, 12)
        assert d[0].runs == [(3, 4), (2, 4), (1, 4)]
        assert _built(pair[0]) == 3

    def test_never_used_slabs_run_out_while_released_ones_remain(self):
        pair = self._pair(4)
        a = self._alloc(pair, 4)  # slab 3
        b = self._alloc(pair, 8)  # slabs 2, 1
        self._free(pair, a)  # released: [3]; never used: 0
        c = self._alloc(pair, 2)  # the released slab, not slab 0
        assert c[0].runs == [(3, 2)]
        self._free(pair, b)  # released: [2, 1]
        d = self._alloc(pair, 14)  # 2 on slab 3, then 1, 2, then slab 0
        assert d[0].runs == [(3, 2), (1, 4), (2, 4), (0, 4)]
        assert pair[0].free_slab_count == 0 and pair[0]._unused == 0
        assert self._alloc(pair, 1) is None
        self._free(pair, c)
        self._free(pair, d)  # released: [3, 1, 2, 0]; never used: none
        e = self._alloc(pair, 9)
        assert e[0].runs == [(0, 4), (2, 4), (1, 1)]
        assert _built(pair[0]) == 4

    @settings(max_examples=60, deadline=None)
    @given(operations=kv_owner_operations())
    def test_slabs_built_equal_peak_held(self, operations):
        # 2048 slabs of 4 MiB; whole-slab blocks touch many slabs.
        block_bytes = {0: 256 * 1024, 1: 768 * 1024, 2: 1536 * 1024, 3: 4 * MiB}
        allocator = SlabAllocator(region_bytes=8 * 1024 * MiB, slab_bytes=4 * MiB)
        assert _built(allocator) == 0
        owners: list[KvExtent] = []
        for action, shape_id, count, pick in operations:
            try:
                if action == "alloc":
                    owners.append(
                        allocator.alloc(shape_id, block_bytes[shape_id], count)
                    )
                elif owners and action == "grow":
                    allocator.grow(owners[pick % len(owners)], count)
                elif owners:
                    allocator.free(owners.pop(pick % len(owners)))
            except MemoryError:
                pass
            built = _built(allocator)
            assert built == allocator.peak_held_bytes // allocator.slab_bytes
            held = allocator.held_bytes // allocator.slab_bytes
            assert allocator.free_slab_count == allocator.slab_count - held
