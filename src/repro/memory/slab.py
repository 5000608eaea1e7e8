"""Slab-allocated unified KV cache (§5.2, Figure 9 bottom).

KV-cache block sizes vary 20x across models (Table 1), so a unified
cache serving many models cannot pre-carve fixed per-shape pools without
fragmenting.  Aegaeon divides each cache region (VRAM or DRAM) into
fixed-size *slabs*; a slab is dynamically assigned to one KV shape and
serves fixed-size blocks of that shape until every block is freed, at
which point the slab returns to the shared free pool.

The simulation never reads which block of a slab a request holds, only
how many blocks each slab has out, so KV handles are run-length
*extents*: ``alloc`` returns one :class:`KvExtent` listing
``(slab_index, n)`` runs in allocation order, ``grow`` appends runs to
one in place, and a slab keeps only its ``used_count``.  ``alloc``,
``grow`` and ``free`` do O(1) work per slab touched, not per block, and
nothing is minted per block.  Freeing or growing a dead (already
freed) extent or another allocator's extent raises ``ValueError``.

Equivalence with a per-block allocator (``tests/reference_slab.py``,
checked differentially after every operation): slab choice is the
same — front of the shape's availability list first, stale entries
dropped on sight, new slabs popped from the end of the free pool — and
``free`` walks the runs in allocation order, splitting only where the
slab changes, which is exactly how a per-block free of the same block
list applies its per-slab accounting.  Release and relist order, and so
every later slab choice, is therefore identical.

The free pool is lazy: a :class:`Slab` is built the first time an
allocation takes its index, so a multi-thousand-slab region that a run
barely touches costs a list of ``None`` and not one object per slab.
Indices never used are a count below the stack of released slabs, and
a pop takes the last-released slab first, then the highest never-used
index — the order an eager ``list(range(slab_count))`` pool pops in.

Per-shape state (block size, free-block total, availability list,
assigned slabs) lives in one ``_ShapeRec``, fetched with a single dict
lookup per ``alloc``; ``free`` reaches it through ``Slab._rec`` with no
hashing, and ``capacity_for`` reads the incrementally kept free total.

An allocation that does not fit raises ``MemoryError``, or its subclass
:class:`KvTooLargeError` when no free could ever make room.  A caller
waiting for space parks an event with :meth:`SlabAllocator.wake_on_free`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..obs import NULL_OBS, Observability
from ..sim import Event

__all__ = ["KvExtent", "KvTooLargeError", "Slab", "SlabAllocator", "ShapeStats"]


class KvTooLargeError(MemoryError):
    """The allocation exceeds the whole region, so no free can make room."""


class KvExtent:
    """One owner's KV blocks of one shape, as runs of blocks per slab.

    ``runs`` holds ``(slab_index, n)`` pairs in allocation order;
    neighbouring runs are always on different slabs.  ``len()`` is the
    block count.  An extent dies when it is freed, and its allocator
    refuses it from then on.
    """

    __slots__ = ("shape", "runs", "blocks", "live", "owner")

    def __init__(
        self,
        shape: Hashable,
        runs: list[tuple[int, int]],
        blocks: int,
        owner: "SlabAllocator",
    ):
        self.shape = shape
        self.runs = runs
        self.blocks = blocks
        self.live = True
        self.owner = owner

    def __len__(self) -> int:
        return self.blocks

    def __repr__(self) -> str:
        state = "live" if self.live else "dead"
        return f"KvExtent({self.shape!r}, {self.runs}, {state})"


@dataclass(slots=True)
class Slab:
    """A fixed-size chunk of the cache region, bound to one shape at a time."""

    index: int
    nbytes: int
    shape: Optional[Hashable] = None
    block_bytes: int = 0
    used_count: int = 0
    # Shape this slab is listed under in the allocator's availability
    # lists, or None when not listed (full, free, or released).  Lets
    # stale availability entries be recognised without bookkeeping on
    # the release path.
    _avail_shape: Optional[Hashable] = field(default=None, repr=False)
    # The allocator's per-shape record this slab is assigned under
    # (set by _acquire_slab); gives the free path its shape bookkeeping
    # without any dict lookups.
    _rec: Optional["_ShapeRec"] = field(default=None, repr=False)

    @property
    def blocks_per_slab(self) -> int:
        return self.nbytes // self.block_bytes if self.block_bytes else 0

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
        self.used_count = 0

    def unassign(self) -> None:
        """Return the slab to the shared pool (must be empty)."""
        if self.used_count:
            raise ValueError(f"slab {self.index} still has used blocks")
        self.shape = None
        self.block_bytes = 0
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
        # Slabs are built on first use (_acquire_slab); None until then.
        self._slabs: list[Optional[Slab]] = [None] * self.slab_count
        # The free pool: indices [0, _unused) were never used, and the
        # released slabs stack above them, last released on top.
        self._unused = self.slab_count
        self._free_slabs: list[int] = []
        # shape -> consolidated per-shape state (block size, free-block
        # total, availability list, assigned slabs); one hash per alloc.
        self._shapes: dict[Hashable, _ShapeRec] = {}
        self._held_bytes = 0
        self.peak_held_bytes = 0
        # Plain-int lifetime totals — the invariant checker reconciles
        # allocated - freed against live blocks at every operation and
        # sweep.  The metrics below read them at snapshot time, so the
        # per-block paths pay nothing for observability.
        self.blocks_allocated = 0
        self.blocks_freed = 0
        # Events parked by callers waiting for space (wake_on_free).
        self._free_waiters: list[Event] = []
        # The decode run landing KV growth on this cache
        # (``core.instance.DecodeRun``), or None.  An alloc could take
        # the room its growth counts on, so it splits the run; a free
        # settles it, so the run's growth lands in time order with it.
        self._run = None
        self.name = name
        if obs.enabled:
            scope = obs.scoped(name)
            scope.gauge("blocks_allocated").set_fn(lambda: self.blocks_allocated)
            scope.gauge("blocks_freed").set_fn(lambda: self.blocks_freed)
            scope.gauge("held_bytes").set_fn(lambda: self.held_bytes)
            scope.gauge("fragmentation").set_fn(self.overall_fragmentation)

    # -- allocation ----------------------------------------------------------
    def alloc(self, shape: Hashable, block_bytes: int, count: int = 1) -> KvExtent:
        """Allocate ``count`` blocks of ``shape`` as one extent; all-or-nothing.

        Raises ``MemoryError`` when the region cannot satisfy the
        request even after acquiring new slabs, and
        :class:`KvTooLargeError` when even the empty region could not.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if self._run is not None:
            self._run.split()
        rec = self._shapes.get(shape)
        if rec is None:
            rec = _ShapeRec(block_bytes, self.slab_bytes // block_bytes)
            self._shapes[shape] = rec
        elif rec.block_bytes != block_bytes:
            raise ValueError(
                f"shape {shape!r} registered with block_bytes={rec.block_bytes}, "
                f"got {block_bytes}"
            )
        runs: list[tuple[int, int]] = []
        self._take(shape, rec, count, runs)
        return KvExtent(shape, runs, count, self)

    def grow(self, extent: KvExtent, count: int) -> None:
        """Append ``count`` blocks to ``extent`` in place; all-or-nothing.

        Takes the blocks ``alloc(extent.shape, ..., count)`` would, and
        merges a first run on the slab ``extent`` ends on into its last
        run.  Raises ``MemoryError`` (leaving ``extent`` unchanged) when
        the region cannot hold them.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if extent.owner is not self or not extent.live:
            raise ValueError(f"cannot grow {extent!r}")
        runs = extent.runs
        slabs = self._slabs
        # The extent holds blocks on its last slab, so that slab is
        # assigned under the extent's shape record.
        last_index, last_n = runs[-1]
        rec = slabs[last_index]._rec
        avail = rec.avail
        if avail:
            # The common decode step: the front listed slab is live and
            # keeps a free block after this grow, so _take would take
            # every block from it and leave the list as it is.  Do that
            # here; anything else (a stale front, a slab this grow
            # fills, a grow that spans slabs) goes through _take.
            slab_index = avail[0]
            slab = slabs[slab_index]
            if (
                slab._avail_shape is extent.shape
                and rec.per_slab - slab.used_count > count
            ):
                slab.used_count += count
                if slab_index == last_index:
                    runs[-1] = (slab_index, last_n + count)
                else:
                    runs.append((slab_index, count))
                rec.free_count -= count
                self.blocks_allocated += count
                extent.blocks += count
                return
        self._take(extent.shape, rec, count, runs)
        extent.blocks += count

    def _take(
        self, shape: Hashable, rec: _ShapeRec, count: int, runs: list
    ) -> None:
        """Take ``count`` blocks of ``shape`` and append them to ``runs``.

        A first run on the slab ``runs`` ends on merges into its last run.
        """
        per_slab = rec.per_slab
        free_slabs = len(self._free_slabs) + self._unused
        if rec.free_count + free_slabs * per_slab < count:
            error = (
                KvTooLargeError if count > self.slab_count * per_slab else MemoryError
            )
            raise error(f"unified cache cannot hold {count} blocks of {shape!r}")
        start = len(runs)
        remaining = count
        avail = rec.avail
        if avail:
            # Take from listed slabs front to back, compacting the list in
            # place: stale and filled entries are dropped, the rest kept.
            slabs = self._slabs
            read = write = 0
            n_avail = len(avail)
            while read < n_avail and remaining:
                slab_index = avail[read]
                read += 1
                slab = slabs[slab_index]
                if slab._avail_shape is not shape:
                    continue  # stale: released or reassigned since listed
                free = per_slab - slab.used_count
                if free > remaining:
                    slab.used_count += remaining
                    runs.append((slab_index, remaining))
                    remaining = 0
                    avail[write] = slab_index
                    write += 1
                else:
                    slab.used_count = per_slab
                    slab._avail_shape = None
                    runs.append((slab_index, free))
                    remaining -= free
            if write != read:
                del avail[write:read]
        while remaining:
            slab = self._acquire_slab(shape, rec.block_bytes, rec)
            taken = per_slab if per_slab < remaining else remaining
            slab.used_count = taken
            runs.append((slab.index, taken))
            remaining -= taken
            if taken == per_slab:
                slab._avail_shape = None
        if start and runs[start][0] == runs[start - 1][0]:
            runs[start - 1] = (runs[start][0], runs[start - 1][1] + runs[start][1])
            del runs[start]
        rec.free_count -= count
        self.blocks_allocated += count

    def free(self, extent: KvExtent) -> None:
        """Release an extent's blocks; empty slabs return to the shared pool.

        Each run gives back its blocks to one slab in one step; a slab
        left empty is released, and a slab that was full is listed as
        available again.
        """
        if extent.owner is not self:
            raise ValueError(f"{extent!r} belongs to another allocator")
        if not extent.live:
            raise ValueError(f"double free of {extent!r}")
        if self._run is not None:
            self._run.settle()
        extent.live = False
        slabs = self._slabs
        for slab_index, n in extent.runs:
            slab = slabs[slab_index]
            rec = slab._rec
            slab.used_count -= n
            rec.free_count += n
            if not slab.used_count:
                self._release_slab(slab)
            elif slab._avail_shape is None:
                # Was full (or lazily delisted); list it again.
                slab._avail_shape = slab.shape
                rec.avail.append(slab_index)
        count = extent.blocks
        self.blocks_freed += count
        if self._free_waiters:
            waiters = self._free_waiters
            self._free_waiters = []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def wake_on_free(self, event: Event) -> None:
        """Succeed ``event`` at the next :meth:`free`, in parking order.

        An event already triggered elsewhere by then is skipped.
        """
        self._free_waiters.append(event)

    # -- capacity ------------------------------------------------------------
    def capacity_for(self, shape: Hashable, block_bytes: int) -> int:
        """Blocks of ``shape`` allocatable right now (free + reclaimable)."""
        rec = self._shapes.get(shape)
        free_slabs = len(self._free_slabs) + self._unused
        if rec is None:
            return free_slabs * (self.slab_bytes // block_bytes)
        return rec.free_count + free_slabs * rec.per_slab

    @property
    def free_slab_count(self) -> int:
        """Slabs in the shared pool: released ones plus never-used ones."""
        return len(self._free_slabs) + self._unused

    # -- statistics (Figure 16) ------------------------------------------------
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
        if self._free_slabs:
            slab = self._slabs[self._free_slabs.pop()]
        elif self._unused:
            self._unused -= 1
            index = self._unused
            slab = self._slabs[index] = Slab(index=index, nbytes=self.slab_bytes)
        else:
            raise MemoryError("no free slabs")
        slab.assign(shape, block_bytes)
        slab._avail_shape = shape
        slab._rec = rec
        rec.slabs.append(slab.index)
        rec.avail.append(slab.index)
        rec.free_count += rec.per_slab
        self._held_bytes += self.slab_bytes
        if self._held_bytes > self.peak_held_bytes:
            self.peak_held_bytes = self._held_bytes
        return slab

    def _release_slab(self, slab: Slab) -> None:
        rec = slab._rec
        rec.slabs.remove(slab.index)
        rec.free_count -= rec.per_slab
        slab._rec = None
        slab.unassign()
        self._free_slabs.append(slab.index)
        self._held_bytes -= self.slab_bytes
