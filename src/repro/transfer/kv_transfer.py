"""KV-cache transfer with fine-grained synchronization (§5.3, Figure 10).

Moving a request's KV cache between the unified GPU cache and the unified
CPU cache must respect three data dependencies:

* rule ❶ — inference needs the KV cache resident on the GPU;
* rule ❷ — a new transfer needs the source blocks to have finished their
  previous transfer;
* rule ❸ — a new transfer's target blocks must be free of past transfers.

Aegaeon enforces these with per-request CUDA events instead of blocking
device synchronization.  Rule ❸ is realized through *move lists*: CPU
blocks released by a swap-in stay unavailable (not returned to the slab
allocator) until the reclaim daemon's next tick after the covering event
completes — the deferred free makes "allocations neglect blocks in move
lists" automatic.  The daemon ticks on a fixed ``daemon_interval`` grid,
but only the ticks that free something are simulated: a completing event
tells its move list, which arms one timeout at the first grid tick after
it (see :class:`MoveList`).

``fine_grained=False`` reproduces the unoptimized path: every stage ends
in a device-wide synchronize, and frees happen inline on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Generator, Optional

from ..memory.slab import KvExtent, SlabAllocator
from ..models.kv import DEFAULT_BLOCK_TOKENS, KvShape
from ..obs import NULL_OBS, Observability
from ..sim import Environment, Timeout
from ..hardware.interconnect import DuplexLink
from .streams import CudaEvent, CudaStream

__all__ = ["RequestKv", "MoveList", "KvTransferManager", "TransferStats"]

# Host-side cost of manipulating one event / index entry (control plane).
CONTROL_OP_COST = 20e-6


@dataclass
class RequestKv:
    """Tracks where one request's KV cache lives and its last transfer."""

    request_id: int
    shape: KvShape
    tokens: int
    block_tokens: int = DEFAULT_BLOCK_TOKENS
    location: str = "none"  # none | gpu | cpu
    # The blocks held in each unified cache, one extent per cache.
    gpu_blocks: Optional[KvExtent] = None
    cpu_blocks: Optional[KvExtent] = None
    last_transfer: Optional[CudaEvent] = None

    def __post_init__(self) -> None:
        # Shape and block size are fixed for the request's lifetime;
        # grow() runs once per decode chunk per request, so the derived
        # block geometry is computed once instead of per call.
        self._block_bytes = self.shape.block_bytes(self.block_tokens)
        # Tokens that block_count blocks hold; grow() keeps it current.
        self.capacity_tokens = self.block_count * self.block_tokens

    @property
    def block_count(self) -> int:
        """Paged blocks needed for ``tokens`` tokens."""
        return max(1, -(-self.tokens // self.block_tokens))

    @property
    def nbytes(self) -> int:
        """Bytes actually moved for this request's KV."""
        return self.tokens * self.shape.bytes_per_token

    @property
    def block_bytes(self) -> int:
        return self._block_bytes

    def ready_on_gpu(self) -> bool:
        """Rule ❶ check: resident and the last transfer has completed."""
        if self.location != "gpu":
            return False
        return self.last_transfer is None or self.last_transfer.query()

    def grow(self, new_tokens: int, gpu_cache: SlabAllocator) -> None:
        """Extend GPU-resident KV by ``new_tokens`` (decode appends).

        ``capacity_tokens`` is what :attr:`block_count` blocks hold, so a
        caller may add tokens that stay within it without calling this;
        the decode loops do, and call here only when a block boundary is
        crossed.  On ``MemoryError`` the tokens stay counted (the
        caller swaps the request out at its new size, or fails it).
        """
        if self.location != "gpu":
            raise ValueError("can only grow KV resident on the GPU")
        tokens = self.tokens
        block_tokens = self.block_tokens
        old_blocks = -(-tokens // block_tokens)
        self.tokens = tokens = tokens + new_tokens
        blocks = -(-tokens // block_tokens)
        self.capacity_tokens = (blocks if blocks > 1 else 1) * block_tokens
        missing = blocks - (old_blocks if old_blocks > 1 else 1)
        if missing > 0:
            gpu_cache.grow(self.gpu_blocks, missing)


class _ReclaimGrid:
    """One manager's reclaim daemon, kept as arithmetic (Fig. 10, step ⑧).

    The daemon parks while the move list is empty.  An add wakes the
    adding manager's daemon onto the first ``interval`` grid point after
    ``now``; from there it ticks at ``t + interval`` (accumulated, so the
    grid drifts off exact multiples) and parks at the first tick that
    finds the list empty.  ``order`` ranks activations: of two daemons
    ticking at one instant, the one activated first ticks first.
    """

    __slots__ = ("manager", "interval", "active", "next_tick", "order")

    def __init__(self, manager: "KvTransferManager") -> None:
        self.manager = manager
        self.interval = manager._daemon_interval
        self.active = False
        self.next_tick = 0.0
        self.order = 0


class MoveList:
    """Unsafe sections of the CPU cache: blocks with in-flight transfers.

    Every manager sharing the list attaches one reclaim daemon, a
    :class:`_ReclaimGrid`.  A polling daemon would tick every
    ``daemon_interval`` while any entry is pending, and most ticks would
    free nothing.  Here a completing :class:`CudaEvent` calls
    :meth:`_completed`, and the list arms one timeout at the earliest
    tick of any active daemon, which frees every completed entry.  The
    ticks in between are replayed arithmetically (:meth:`_catch_up`)
    before each add, completion and fire: a skipped tick frees nothing,
    so all it can do is park its daemon when the list is empty.  Blocks
    are freed at the same instants, in the same order, by the same
    manager as the polling daemon in ``tests/reference_reclaim.py``.
    An add or a completion landing exactly on a tick counts as before
    it, as it did for the polling daemon's first tick after a wake-up;
    later ticks of a polling daemon could order either way at such an
    exact float tie.

    A list with no daemon attached still works: :meth:`reclaim` frees
    whatever has completed when called.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[KvExtent, CudaEvent]] = []
        self._grids: list[_ReclaimGrid] = []
        self._activations = 0
        # The one timeout armed to reclaim completed entries, set while
        # any are waiting, and the daemon whose tick it is.
        self._armed: Optional[Timeout] = None
        self._armed_grid: Optional[_ReclaimGrid] = None
        self._fire_cb = self._fire

    def attach(self, manager: "KvTransferManager") -> _ReclaimGrid:
        """Start ``manager``'s reclaim daemon on this list."""
        grid = _ReclaimGrid(manager)
        self._grids.append(grid)
        if self.entries:
            # A daemon started over pending entries ticks from its start.
            self._activate(grid, manager.env.now + grid.interval)
        return grid

    def add(
        self,
        blocks: KvExtent,
        event: CudaEvent,
        grid: Optional[_ReclaimGrid] = None,
    ) -> None:
        """Mark blocks unsafe until ``event`` completes.

        ``grid`` is the adding manager's daemon, woken if parked; only a
        list without daemons takes adds without one.
        """
        now = event.env.now
        if self._grids:
            self._catch_up(now)
        self.entries.append((blocks, event))
        if grid is not None and not grid.active:
            interval = grid.interval
            remainder = now % interval
            self._activate(
                grid, now + (interval - remainder if remainder > 0.0 else interval)
            )
        if event.completed_at is not None or not event.recorded:
            self._completed(event)
        elif event._move_list is None:
            event._move_list = self
        elif event._move_list is not self:
            raise ValueError(f"{event!r} already guards another move list")

    def reclaim(self, cpu_cache: SlabAllocator) -> int:
        """Free blocks whose transfers completed; returns blocks freed."""
        freed = 0
        remaining = []
        keep = remaining.append
        for entry in self.entries:
            event = entry[1]
            # Inline CudaEvent.query(): runs for every pending entry on
            # every tick that frees something.
            if event.completed_at is not None or not event.recorded:
                blocks = entry[0]
                cpu_cache.free(blocks)
                freed += len(blocks)
            else:
                keep(entry)
        self.entries = remaining
        return freed

    @property
    def pending_blocks(self) -> int:
        return sum(len(blocks) for blocks, _ in self.entries)

    # -- the reclaim daemons ------------------------------------------------
    def _completed(self, event: CudaEvent) -> None:
        """A guarded transfer completed: arm the next tick if none is."""
        if self._armed is None and self._grids:
            self._catch_up(event.env.now)
            self._arm_earliest()

    def _activate(self, grid: _ReclaimGrid, first_tick: float) -> None:
        grid.active = True
        grid.next_tick = first_tick
        grid.order = self._activations
        self._activations += 1
        armed = self._armed
        if armed is not None and first_tick < self._armed_grid.next_tick:
            # The new daemon ticks before the armed one would.
            armed.cancel()
            self._arm(grid)

    def _catch_up(self, now: float) -> None:
        """Replay every daemon's ticks before ``now``; none frees anything."""
        empty = not self.entries
        for grid in self._grids:
            tick = grid.next_tick
            if grid.active and tick < now:
                if empty:
                    grid.active = False
                else:
                    interval = grid.interval
                    while tick < now:
                        tick += interval
                    grid.next_tick = tick

    def _arm_earliest(self) -> None:
        active = [grid for grid in self._grids if grid.active]
        if active:
            self._arm(min(active, key=lambda grid: (grid.next_tick, grid.order)))

    def _arm(self, grid: _ReclaimGrid) -> None:
        timeout = grid.manager.env.timeout_at(grid.next_tick)
        timeout.callbacks.append(self._fire_cb)
        self._armed = timeout
        self._armed_grid = grid

    def _fire(self, timeout: Timeout) -> None:
        grid = self._armed_grid
        self._armed = self._armed_grid = None
        now = timeout.env.now
        self._catch_up(now)
        manager = grid.manager
        if self.reclaim(manager.cpu_cache):
            manager.stats.charge_control(1)
        grid.next_tick = now + grid.interval
        if not self.entries:
            grid.active = False


@dataclass
class TransferStats:
    """Aggregated overheads, feeding the Figure 14/15 breakdowns."""

    swap_out_count: int = 0
    swap_in_count: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    control_overhead: float = 0.0  # host-side event/index manipulation
    data_wait: float = 0.0  # explicit waiting for KV transfers
    per_request_sync: dict[int, float] = field(default_factory=dict)

    def charge_control(self, ops: int) -> None:
        """Account host-side event/index manipulation cost."""
        self.control_overhead += ops * CONTROL_OP_COST

    def charge_wait(self, request_id: int, seconds: float) -> None:
        """Account explicit waiting time for one request's KV transfer."""
        self.data_wait += seconds
        self.per_request_sync[request_id] = (
            self.per_request_sync.get(request_id, 0.0) + seconds
        )


class KvTransferManager:
    """Swap engine for one GPU: streams, move lists, and the daemon."""

    def __init__(
        self,
        env: Environment,
        link: DuplexLink,
        gpu_cache: SlabAllocator,
        cpu_cache: SlabAllocator,
        move_list: Optional[MoveList] = None,
        fine_grained: bool = True,
        daemon_interval: float = 0.005,
        name: str = "gpu",
        obs: Observability = NULL_OBS,
    ):
        self.env = env
        self.link = link
        self.gpu_cache = gpu_cache
        self.cpu_cache = cpu_cache
        self.move_list = move_list if move_list is not None else MoveList()
        self.fine_grained = fine_grained
        self.stats = TransferStats()
        # GPU extents handed to in-flight swap-outs: no longer owned
        # by a request, not yet returned to the allocator.  The invariant
        # checker sums these when reconciling GPU-cache occupancy.
        self.inflight_sources: list[KvExtent] = []
        self.kv_in = CudaStream(env, name=f"{name}.kv_in", obs=obs)
        self.kv_out = CudaStream(env, name=f"{name}.kv_out", obs=obs)
        self._daemon_interval = daemon_interval
        self.name = name
        self._tracer = obs.tracer
        scope = obs.scoped(f"kv.{name}")
        self._wait_hist = scope.histogram("wait_ready_s")
        if obs.enabled:
            # Swap totals are read from the plain ints in ``stats`` at
            # snapshot time, so a swap pays nothing for them.
            stats = self.stats
            scope.gauge("swap_in").set_fn(lambda: stats.swap_in_count)
            scope.gauge("swap_out").set_fn(lambda: stats.swap_out_count)
            scope.gauge("bytes_in").set_fn(lambda: stats.bytes_in)
            scope.gauge("bytes_out").set_fn(lambda: stats.bytes_out)
            scope.gauge("move_list_blocks").set_fn(
                lambda: self.move_list.pending_blocks
            )
        self._reclaim = self.move_list.attach(self)

    # -- allocation on the GPU ------------------------------------------------
    def alloc_gpu(self, kv: RequestKv) -> None:
        """Give a fresh request its GPU KV blocks (prefill admission)."""
        if kv.location != "none":
            raise ValueError(f"request {kv.request_id} already has KV")
        kv.gpu_blocks = self.gpu_cache.alloc(
            kv.shape, kv.block_bytes, kv.block_count
        )
        kv.location = "gpu"

    def free_gpu(self, kv: RequestKv) -> None:
        """Drop a finished request's GPU KV."""
        if kv.gpu_blocks is not None:
            self.gpu_cache.free(kv.gpu_blocks)
            kv.gpu_blocks = None
        if kv.location == "gpu":
            kv.location = "none"

    def abort_request(self, kv: RequestKv) -> None:
        """Dispose of a request's KV when its instance dies mid-flight.

        GPU blocks the request still owns are freed immediately (the
        device is gone; nothing will touch them).  CPU blocks are freed
        unless an in-flight transfer still covers them — a swap-in's
        source blocks already sit on the move list under ``last_transfer``
        and will be reclaimed after it completes, so freeing them here would
        double-free.  Blocks handed to an in-flight swap-out are not on
        the request anymore and release through their own completion.
        """
        if kv.gpu_blocks is not None:
            self.gpu_cache.free(kv.gpu_blocks)
            kv.gpu_blocks = None
        if kv.cpu_blocks is not None:
            if kv.last_transfer is not None and not kv.last_transfer.query():
                # Defer to the transfer's completion (rule ❸ discipline).
                self.move_list.add(kv.cpu_blocks, kv.last_transfer, self._reclaim)
            else:
                self.cpu_cache.free(kv.cpu_blocks)
            kv.cpu_blocks = None
        kv.location = "none"
        self.stats.charge_control(1)

    # -- swap-out ---------------------------------------------------------------
    def swap_out(self, kv: RequestKv) -> CudaEvent:
        """Offload a request's KV to the unified CPU cache (async).

        Returns the transfer event; GPU blocks are freed when the copy
        completes (they are the *source*, safe to reuse afterwards).
        """
        if kv.location != "gpu":
            raise ValueError(f"request {kv.request_id} is not on the GPU")
        kv.cpu_blocks = self.cpu_cache.alloc(
            kv.shape, kv.block_bytes, kv.block_count
        )
        # Rule ❷: our source (GPU blocks) must be done with its last
        # transfer (e.g. the swap-in that brought it here).
        if kv.last_transfer is not None and not kv.last_transfer.query():
            self.kv_out.wait_event(kv.last_transfer)
            self.stats.charge_control(1)
        event = CudaEvent(self.env, name=f"out.r{kv.request_id}")
        gpu_blocks = kv.gpu_blocks
        kv.gpu_blocks = None
        self.inflight_sources.append(gpu_blocks)
        self.kv_out.copy(
            self.link.d2h, kv.nbytes,
            on_done=partial(self._release_source, gpu_blocks),
        )
        self.kv_out.record(event)
        kv.last_transfer = event
        kv.location = "cpu"
        self.stats.swap_out_count += 1
        self.stats.bytes_out += kv.nbytes
        self.stats.charge_control(2)
        if self._tracer.enabled:
            self._tracer.instant(
                "swap_out", cat="kv", track=self.name,
                request_id=kv.request_id, nbytes=kv.nbytes,
            )
        return event

    def _release_source(self, gpu_blocks: KvExtent) -> None:
        """A swap-out's copy completed: its GPU source blocks are free."""
        self.inflight_sources.remove(gpu_blocks)
        self.gpu_cache.free(gpu_blocks)

    # -- swap-in ----------------------------------------------------------------
    def swap_in(self, kv: RequestKv) -> CudaEvent:
        """Bring a request's KV back onto this GPU (async).

        The CPU source blocks go onto the move list (rule ❸) and are
        reclaimed at the first daemon tick after the copy completes.
        """
        if kv.location != "cpu":
            raise ValueError(f"request {kv.request_id} is not in the CPU cache")
        kv.gpu_blocks = self.gpu_cache.alloc(
            kv.shape, kv.block_bytes, kv.block_count
        )
        # Rule ❷: wait for the producing transfer (possibly recorded by a
        # different instance).
        if kv.last_transfer is not None and not kv.last_transfer.query():
            self.kv_in.wait_event(kv.last_transfer)
            self.stats.charge_control(1)
        event = CudaEvent(self.env, name=f"in.r{kv.request_id}")
        cpu_blocks = kv.cpu_blocks
        kv.cpu_blocks = None
        self.kv_in.copy(self.link.h2d, kv.nbytes)
        self.kv_in.record(event)
        # Rule ❸: source CPU blocks stay unavailable until the copy is done.
        self.move_list.add(cpu_blocks, event, self._reclaim)
        kv.last_transfer = event
        kv.location = "gpu"
        self.stats.swap_in_count += 1
        self.stats.bytes_in += kv.nbytes
        self.stats.charge_control(3)
        if self._tracer.enabled:
            self._tracer.instant(
                "swap_in", cat="kv", track=self.name,
                request_id=kv.request_id, nbytes=kv.nbytes,
            )
        return event

    # -- host-side waits -----------------------------------------------------
    def wait_ready(self, kv: RequestKv) -> Generator:
        """Process: block until ``kv`` is usable on the GPU (rule ❶)."""
        if kv.location != "gpu":
            raise ValueError(f"request {kv.request_id} is not headed to the GPU")
        if kv.last_transfer is None or kv.last_transfer.query():
            return
        start = self.env.now
        yield kv.last_transfer.wait()
        waited = self.env.now - start
        self.stats.charge_wait(kv.request_id, waited)
        self._wait_hist.observe(waited)
        if self._tracer.enabled:
            self._tracer.complete(
                "wait_ready", cat="kv", track=self.name,
                start=start, end=self.env.now, request_id=kv.request_id,
            )

    def drain(self) -> Generator:
        """Process: blocking synchronization of both KV streams.

        This is what the unoptimized path does between auto-scaling
        stages; the optimized path never calls it on the critical path.
        """
        start = self.env.now
        yield self.env.all_of(
            [self.kv_in.synchronize(), self.kv_out.synchronize()]
        )
        self.stats.data_wait += self.env.now - start
