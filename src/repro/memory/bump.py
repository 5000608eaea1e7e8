"""Self-managed VRAM buffer with bump allocation (§5.2).

Aegaeon requests all the VRAM it needs for weights and KV cache as one
self-managed buffer at startup and serves model-weight allocations from
it by bumping a pointer.  Deallocation of *everything above a mark* is a
pointer reset — this is what removes the garbage-collection stage from
the preemptive scale-up sequence.

The allocator here is byte-accurate: the engine allocates real extents
for weights and prefetched models, and the prefetch "move to the start of
the buffer" trick (Figure 9, step 3.b) is implemented as
:meth:`BumpAllocator.compact_to_front`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BumpAllocation", "BumpAllocator"]


@dataclass
class BumpAllocation:
    """A live extent inside the bump buffer."""

    offset: int
    nbytes: int
    tag: str
    freed: bool = False

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


@dataclass
class BumpAllocator:
    """A contiguous self-managed buffer with bump allocation.

    Allocations are placed at the current pointer; ``reset`` (optionally
    to a mark) releases everything allocated after that point in O(1).
    """

    capacity: int
    alignment: int = 256
    _pointer: int = 0
    _live: list[BumpAllocation] = field(default_factory=list)
    peak: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.alignment <= 0 or (self.alignment & (self.alignment - 1)):
            raise ValueError("alignment must be a positive power of two")

    # -- core API ----------------------------------------------------------
    def alloc(self, nbytes: int, tag: str = "") -> BumpAllocation:
        """Allocate ``nbytes`` at the pointer; raises ``MemoryError`` if full."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        aligned = self._align(self._pointer)
        if aligned + nbytes > self.capacity:
            raise MemoryError(
                f"bump buffer exhausted: need {nbytes} bytes at {aligned}, "
                f"capacity {self.capacity}"
            )
        allocation = BumpAllocation(offset=aligned, nbytes=nbytes, tag=tag)
        self._live.append(allocation)
        self._pointer = aligned + nbytes
        self.peak = max(self.peak, self._pointer)
        return allocation

    def reset(self, mark: int = 0) -> list[BumpAllocation]:
        """Drop every allocation at or above ``mark``; returns the dropped ones.

        This is the O(1)-conceptual "deallocate by resetting the pointer"
        operation; live bookkeeping is updated so leaks are detectable.
        """
        if mark < 0 or mark > self.capacity:
            raise ValueError("mark out of range")
        dropped = [a for a in self._live if a.offset >= mark]
        for allocation in dropped:
            allocation.freed = True
        self._live = [a for a in self._live if a.offset < mark]
        self._pointer = mark
        return dropped

    def retire(self, allocation: BumpAllocation) -> None:
        """Drop one live allocation without moving the pointer.

        True to bump semantics, the space is not reusable until a
        ``reset`` below it (or a ``compact_to_front`` of a sole
        survivor); this is how the engine retires the running model's
        weights while a prefetched model sits above them.
        """
        if allocation.freed or allocation not in self._live:
            raise ValueError("allocation is not live")
        allocation.freed = True
        self._live.remove(allocation)

    def compact_to_front(self, allocation: BumpAllocation) -> BumpAllocation:
        """Move one live allocation to the front of the buffer.

        Implements the prefetch promotion in Figure 9 (step 3.b): after
        the old model is dropped, the prefetched weights sitting higher
        in the buffer are moved to offset 0 with a cheap on-device copy.
        All other live allocations must already be gone.
        """
        if allocation.freed or allocation not in self._live:
            raise ValueError("can only compact a live allocation")
        others = [a for a in self._live if a is not allocation]
        if others:
            raise ValueError("compact_to_front requires a sole survivor")
        allocation.offset = 0
        self._pointer = allocation.nbytes
        return allocation

    # -- inspection ---------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes between the buffer start and the pointer."""
        return self._pointer

    @property
    def free(self) -> int:
        """Bytes remaining above the pointer."""
        return self.capacity - self._pointer

    @property
    def live_bytes(self) -> int:
        """Bytes inside live allocations (excludes alignment gaps)."""
        return sum(a.nbytes for a in self._live)

    @property
    def live_allocations(self) -> tuple[BumpAllocation, ...]:
        return tuple(self._live)

    def _align(self, offset: int) -> int:
        mask = self.alignment - 1
        return (offset + mask) & ~mask
