"""Per-block reference slab allocator: the oracle for ``repro.memory.slab``.

This is the allocator as it stood before KV handles became run-length
extents, kept verbatim apart from this paragraph and an absolute import.
It hands out one ``KvBlock`` per block from per-slab free lists, so the
differential test in ``test_memory_slab.py`` can check that the extent
allocator makes the same slab choices, holds the same bytes and reports
the same statistics after every operation.

Original description — slab-allocated unified KV cache (§5.2, Figure 9 bottom).

KV-cache block sizes vary 20x across models (Table 1), so a unified
cache serving many models cannot pre-carve fixed per-shape pools without
fragmenting.  Aegaeon divides each cache region (VRAM or DRAM) into
fixed-size *slabs*; a slab is dynamically assigned to one KV shape and
serves fixed-size blocks of that shape until every block is freed, at
which point the slab returns to the shared free pool.

This module is a real allocator: every block handed out is a distinct
:class:`KvBlock` with a stable address, double-free and cross-shape
accounting is enforced, and the fragmentation statistics behind the
paper's Figure 16 are measured from live state.

Hot-path design (the allocator sits on the per-decode-round path of
every instance):

* **Block arena** — ``KvBlock`` is immutable, so each slab memoizes the
  blocks it has ever minted (lazily, per index) and hands the same
  object out on every reuse.  Steady-state allocation does zero tuple
  construction.
* **Consolidated per-shape state** — block size, free-block total,
  availability list, and assigned-slab list live in one ``_ShapeRec``,
  fetched with a single dict lookup per ``alloc``; the free path
  reaches it through ``Slab._rec`` with no hashing.  ``capacity_for``
  reads the incrementally-maintained free total and never scans slabs.
* **Availability lists** — per-shape lists of slabs that still have
  free blocks, compacted lazily during allocation, so ``alloc`` never
  iterates full slabs.  Stale entries (slab released or reassigned) are
  recognised by ``Slab._avail_shape`` and dropped on sight.
* **Bitmap occupancy** — per-slab ``bytearray`` occupancy plus an
  integer count replace the old per-slab ``set``; double-free detection
  is one index probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, NamedTuple, Optional

from repro.obs import NULL_OBS, Observability

__all__ = ["KvBlock", "Slab", "SlabAllocator", "ShapeStats"]


class KvBlock(NamedTuple):
    """One KV-cache block (a fixed number of tokens of one shape).

    A NamedTuple rather than a frozen dataclass: blocks are minted on
    the allocator's hottest path and tuple construction is several times
    cheaper than ``object.__setattr__`` per field, with the same
    immutability, equality, and hashability.  Immutability is also what
    lets slabs memoize and re-issue the same block object.
    """

    slab_index: int
    block_index: int
    shape: Hashable
    nbytes: int

    @property
    def address(self) -> tuple[int, int]:
        """Stable identity within the allocator."""
        return (self.slab_index, self.block_index)


@dataclass
class Slab:
    """A fixed-size chunk of the cache region, bound to one shape at a time."""

    index: int
    nbytes: int
    shape: Optional[Hashable] = None
    block_bytes: int = 0
    free_blocks: list[int] = field(default_factory=list)
    used_count: int = 0
    # Occupancy bitmap: _used_state[i] is truthy iff block i is live.
    _used_state: bytearray = field(default_factory=bytearray, repr=False)
    # Shape this slab is listed under in the allocator's availability
    # lists, or None when not listed (full, free, or released).  Lets
    # stale availability entries be recognised without bookkeeping on
    # the release path.
    _avail_shape: Optional[Hashable] = field(default=None, repr=False)
    # Lazily-minted KvBlock memo for the current shape (index -> block).
    # One memo list is kept per shape ever hosted (``_block_caches``), so
    # a slab oscillating between shapes re-issues its old arena instead
    # of re-minting every block on each rebind.
    _block_cache: list = field(default_factory=list, repr=False)
    _block_caches: dict = field(default_factory=dict, repr=False)
    # The allocator's per-shape record this slab is assigned under
    # (set by _acquire_slab); gives the free path its shape bookkeeping
    # without any dict lookups.
    _rec: Optional["_ShapeRec"] = field(default=None, repr=False)

    @property
    def blocks_per_slab(self) -> int:
        return self.nbytes // self.block_bytes if self.block_bytes else 0

    @property
    def is_empty(self) -> bool:
        return not self.used_count

    @property
    def is_full(self) -> bool:
        return self.shape is not None and not self.free_blocks

    def assign(self, shape: Hashable, block_bytes: int) -> None:
        """Bind this (previously free) slab to a shape."""
        if self.shape is not None:
            raise ValueError(f"slab {self.index} already assigned")
        if block_bytes <= 0 or block_bytes > self.nbytes:
            raise ValueError(
                f"block_bytes {block_bytes} does not fit slab of {self.nbytes}"
            )
        self.shape = shape
        self.block_bytes = block_bytes
        count = self.nbytes // block_bytes
        self.free_blocks = list(range(count))
        self.used_count = 0
        self._used_state = bytearray(count)
        cache = self._block_caches.get(shape)
        if cache is None:
            cache = [None] * count
            self._block_caches[shape] = cache
        self._block_cache = cache

    def unassign(self) -> None:
        """Return the slab to the shared pool (must be empty)."""
        if not self.is_empty:
            raise ValueError(f"slab {self.index} still has used blocks")
        self.shape = None
        self.block_bytes = 0
        self.free_blocks = []
        self.used_count = 0
        self._used_state = bytearray()
        self._avail_shape = None


@dataclass(frozen=True)
class ShapeStats:
    """Per-shape occupancy, the quantity plotted in Figure 16."""

    shape: Hashable
    block_bytes: int
    used_blocks: int
    slab_count: int
    slab_bytes: int

    @property
    def used_bytes(self) -> int:
        return self.used_blocks * self.block_bytes

    @property
    def held_bytes(self) -> int:
        return self.slab_count * self.slab_bytes

    @property
    def fragmentation(self) -> float:
        """Unused fraction of the memory held for this shape."""
        if self.held_bytes == 0:
            return 0.0
        return 1.0 - self.used_bytes / self.held_bytes


class _ShapeRec:
    """All per-shape allocator state, one dict lookup away.

    ``alloc`` fetches this record once per call; the free path reaches
    it through ``Slab._rec`` with no hashing at all.  Records are never
    deleted — a shape that loses its last slab keeps its registered
    ``block_bytes`` (conflicting re-registration stays an error) with
    ``free_count`` back at zero.
    """

    __slots__ = ("block_bytes", "per_slab", "free_count", "avail", "slabs")

    def __init__(self, block_bytes: int, per_slab: int):
        self.block_bytes = block_bytes
        self.per_slab = per_slab
        self.free_count = 0
        # Indices of assigned slabs believed to have free blocks, in
        # listing order; may contain stale entries, which alloc() drops
        # when their _avail_shape no longer matches.
        self.avail: list[int] = []
        # Indices of slabs currently assigned to this shape.
        self.slabs: list[int] = []


class SlabAllocator:
    """Unified KV cache over a region divided into fixed-size slabs."""

    def __init__(
        self,
        region_bytes: int,
        slab_bytes: int,
        name: str = "slab",
        obs: Observability = NULL_OBS,
    ):
        if slab_bytes <= 0 or region_bytes < slab_bytes:
            raise ValueError("region must hold at least one slab")
        self.slab_bytes = slab_bytes
        self.slab_count = region_bytes // slab_bytes
        self.region_bytes = self.slab_count * slab_bytes
        self._slabs = [Slab(index=i, nbytes=slab_bytes) for i in range(self.slab_count)]
        self._free_slabs: list[int] = list(range(self.slab_count))
        # shape -> consolidated per-shape state (block size, free-block
        # total, availability list, assigned slabs); one hash per alloc.
        self._shapes: dict[Hashable, _ShapeRec] = {}
        self._held_bytes = 0
        self.peak_held_bytes = 0
        # Plain-int lifetime totals, always live (unlike the obs
        # counters below, inert under NULL_OBS) — the invariant checker
        # reconciles allocated - freed against live blocks at every
        # operation and sweep.
        self.blocks_allocated = 0
        self.blocks_freed = 0
        self.name = name
        scope = obs.scoped(name)
        self._blocks_allocated = scope.counter("blocks_allocated")
        self._blocks_freed = scope.counter("blocks_freed")
        if obs.enabled:
            scope.gauge("held_bytes").set_fn(lambda: self.held_bytes)
            scope.gauge("fragmentation").set_fn(self.overall_fragmentation)

    # -- allocation ----------------------------------------------------------
    def alloc(self, shape: Hashable, block_bytes: int, count: int = 1) -> list[KvBlock]:
        """Allocate ``count`` blocks of ``shape``; all-or-nothing.

        Raises ``MemoryError`` when the region cannot satisfy the
        request even after acquiring new slabs.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        rec = self._shapes.get(shape)
        if rec is None:
            rec = _ShapeRec(block_bytes, self.slab_bytes // block_bytes)
            self._shapes[shape] = rec
        elif rec.block_bytes != block_bytes:
            raise ValueError(
                f"shape {shape!r} registered with block_bytes={rec.block_bytes}, "
                f"got {block_bytes}"
            )
        if (rec.free_count + len(self._free_slabs) * rec.per_slab) < count:
            raise MemoryError(
                f"unified cache cannot hold {count} blocks of {shape!r}"
            )
        slabs = self._slabs
        avail = rec.avail
        if count == 1:
            # Decode growth allocates one block per chunk per request —
            # the allocator's single hottest call shape.  Same slab
            # choice, block choice, and list states as the general path
            # (front of the availability list, top of the free list,
            # stale entries dropped on sight), minus its loop scaffolding.
            while avail:
                slab_index = avail[0]
                slab = slabs[slab_index]
                if slab._avail_shape is not shape:
                    del avail[0]  # stale: released or reassigned since listed
                    continue
                free_list = slab.free_blocks
                block_index = free_list.pop()
                slab._used_state[block_index] = 1
                cache = slab._block_cache
                block = cache[block_index]
                if block is None:
                    block = KvBlock(slab_index, block_index, shape, block_bytes)
                    cache[block_index] = block
                slab.used_count += 1
                if not free_list:
                    slab._avail_shape = None
                    del avail[0]
                rec.free_count -= 1
                self.blocks_allocated += 1
                self._blocks_allocated.inc(1)
                return [block]
        blocks: list[KvBlock] = []
        append = blocks.append
        remaining = count
        if avail:
            read = write = 0
            n_avail = len(avail)
            while read < n_avail and remaining:
                slab_index = avail[read]
                read += 1
                slab = slabs[slab_index]
                if slab._avail_shape is not shape:
                    continue  # stale: released or reassigned since listed
                free_list = slab.free_blocks
                state = slab._used_state
                cache = slab._block_cache
                # Take the tail of the free list in pop() order, as one
                # slice instead of per-block pops.
                n_free = len(free_list)
                taken = n_free if n_free < remaining else remaining
                cut = n_free - taken
                indices = free_list[n_free - 1 :: -1] if cut == 0 else free_list[: cut - 1 : -1]
                del free_list[cut:]
                for block_index in indices:
                    state[block_index] = 1
                    block = cache[block_index]
                    if block is None:
                        block = KvBlock(
                            slab_index, block_index, shape, block_bytes
                        )
                        cache[block_index] = block
                    append(block)
                remaining -= taken
                slab.used_count += taken
                if free_list:
                    avail[write] = slab_index
                    write += 1
                else:
                    slab._avail_shape = None
            if write != read:
                del avail[write:read]
        while remaining:
            slab = self._acquire_slab(shape, block_bytes, rec)
            free_list = slab.free_blocks
            state = slab._used_state
            cache = slab._block_cache
            slab_index = slab.index
            n_free = len(free_list)
            taken = n_free if n_free < remaining else remaining
            cut = n_free - taken
            indices = free_list[n_free - 1 :: -1] if cut == 0 else free_list[: cut - 1 : -1]
            del free_list[cut:]
            for block_index in indices:
                state[block_index] = 1
                block = cache[block_index]
                if block is None:
                    block = KvBlock(slab_index, block_index, shape, block_bytes)
                    cache[block_index] = block
                append(block)
            remaining -= taken
            slab.used_count += taken
            if not free_list:
                slab._avail_shape = None
        rec.free_count -= count
        self.blocks_allocated += count
        self._blocks_allocated.inc(count)
        return blocks

    def free(self, blocks: list[KvBlock]) -> None:
        """Release blocks; empty slabs return to the shared pool.

        Blocks from one allocation come in slab-contiguous runs, so the
        per-slab bookkeeping (``used_count``, the shape's free total, the
        release/relist decision) is applied once per run instead of once
        per block; only the occupancy bit and the free-list push remain
        per-block work.
        """
        slabs = self._slabs
        slab = None
        slab_index = -1
        run = 0
        shape = state = fl_append = None
        for block in blocks:
            index = block.slab_index
            if index != slab_index:
                if run:
                    self._finish_free_run(slab, run)
                slab = slabs[index]
                slab_index = index
                run = 0
                shape = slab.shape
                state = slab._used_state
                fl_append = slab.free_blocks.append
            if shape is not block.shape and shape != block.shape:
                raise ValueError(
                    f"block {block.address} shape {block.shape!r} does not "
                    f"match slab shape {shape!r} (double free?)"
                )
            block_index = block.block_index
            if not state[block_index]:
                raise ValueError(f"double free of block {block.address}")
            state[block_index] = 0
            fl_append(block_index)
            run += 1
        if run:
            self._finish_free_run(slab, run)
        self.blocks_freed += len(blocks)
        self._blocks_freed.inc(len(blocks))

    def _finish_free_run(self, slab: Slab, run: int) -> None:
        """Apply the per-slab accounting for ``run`` just-freed blocks.

        Equivalent to the former per-block updates: nothing can allocate
        between the blocks of one ``free()`` call, so deferring the
        counter updates and the release/relist decision to the end of the
        run is unobservable.
        """
        rec = slab._rec
        slab.used_count -= run
        rec.free_count += run
        if not slab.used_count:
            self._release_slab(slab)
        elif slab._avail_shape is None:
            # Was full (or lazily delisted); list it again.
            slab._avail_shape = slab.shape
            rec.avail.append(slab.index)

    # -- capacity ------------------------------------------------------------
    def capacity_for(self, shape: Hashable, block_bytes: int) -> int:
        """Blocks of ``shape`` allocatable right now (free + reclaimable)."""
        rec = self._shapes.get(shape)
        if rec is None:
            return len(self._free_slabs) * (self.slab_bytes // block_bytes)
        return rec.free_count + len(self._free_slabs) * rec.per_slab

    @property
    def free_slab_count(self) -> int:
        return len(self._free_slabs)

    # -- statistics (Figure 16) ------------------------------------------------
    @property
    def _shape_slabs(self) -> dict[Hashable, list[int]]:
        """shape -> assigned slab indices (view; cold-path introspection)."""
        return {
            shape: rec.slabs
            for shape, rec in self._shapes.items()
            if rec.slabs
        }

    def shape_stats(self) -> list[ShapeStats]:
        """Occupancy per shape, for shapes currently holding slabs."""
        stats = []
        for shape, rec in sorted(
            self._shapes.items(), key=lambda kv: str(kv[0])
        ):
            if not rec.slabs:
                continue
            used = sum(self._slabs[i].used_count for i in rec.slabs)
            stats.append(
                ShapeStats(
                    shape=shape,
                    block_bytes=rec.block_bytes,
                    used_blocks=used,
                    slab_count=len(rec.slabs),
                    slab_bytes=self.slab_bytes,
                )
            )
        return stats

    def overall_fragmentation(self) -> float:
        """Unused fraction of all held (assigned) slab memory."""
        held = used = 0
        for stats in self.shape_stats():
            held += stats.held_bytes
            used += stats.used_bytes
        return 0.0 if held == 0 else 1.0 - used / held

    @property
    def held_bytes(self) -> int:
        """Bytes in slabs currently assigned to some shape."""
        return self._held_bytes

    # -- internal ----------------------------------------------------------
    def _acquire_slab(
        self, shape: Hashable, block_bytes: int, rec: _ShapeRec
    ) -> Slab:
        if not self._free_slabs:
            raise MemoryError("no free slabs")
        slab = self._slabs[self._free_slabs.pop()]
        slab.assign(shape, block_bytes)
        slab._avail_shape = shape
        slab._rec = rec
        rec.slabs.append(slab.index)
        rec.avail.append(slab.index)
        rec.free_count += len(slab.free_blocks)
        self._held_bytes += self.slab_bytes
        if self._held_bytes > self.peak_held_bytes:
            self.peak_held_bytes = self._held_bytes
        return slab

    def _release_slab(self, slab: Slab) -> None:
        rec = slab._rec
        rec.slabs.remove(slab.index)
        rec.free_count -= len(slab.free_blocks)
        slab._rec = None
        slab.unassign()
        self._free_slabs.append(slab.index)
        self._held_bytes -= self.slab_bytes
