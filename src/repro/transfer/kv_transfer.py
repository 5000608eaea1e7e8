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
allocator) until a daemon observes the covering event complete — the
deferred free makes "allocations neglect blocks in move lists" automatic.

``fine_grained=False`` reproduces the unoptimized path: every stage ends
in a device-wide synchronize, and frees happen inline on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..memory.slab import KvExtent, SlabAllocator
from ..models.kv import DEFAULT_BLOCK_TOKENS, KvShape
from ..obs import NULL_OBS, Observability
from ..sim import ContTask, Environment, Event
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
        """Extend GPU-resident KV by ``new_tokens`` (decode appends)."""
        if self.location != "gpu":
            raise ValueError("can only grow KV resident on the GPU")
        tokens = self.tokens
        block_tokens = self.block_tokens
        old_blocks = -(-tokens // block_tokens)
        self.tokens = tokens = tokens + new_tokens
        missing = -(-tokens // block_tokens) - (old_blocks if old_blocks > 1 else 1)
        if missing > 0:
            self.gpu_blocks.extend(
                gpu_cache.alloc(self.shape, self._block_bytes, missing)
            )


@dataclass
class MoveList:
    """Unsafe sections of the CPU cache: blocks with in-flight transfers."""

    entries: list[tuple[KvExtent, CudaEvent]] = field(default_factory=list)

    def add(self, blocks: KvExtent, event: CudaEvent) -> None:
        """Mark blocks unsafe until ``event`` completes."""
        self.entries.append((blocks, event))

    def reclaim(self, cpu_cache: SlabAllocator) -> int:
        """Free blocks whose transfers completed; returns blocks freed."""
        freed = 0
        remaining = []
        keep = remaining.append
        for entry in self.entries:
            event = entry[1]
            # Inline CudaEvent.query(): this poll runs for every pending
            # entry on every daemon tick.
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
        self._daemon_wake: Optional[Event] = None
        self.name = name
        self._tracer = obs.tracer
        scope = obs.scoped(f"kv.{name}")
        self._swap_in_counter = scope.counter("swap_in")
        self._swap_out_counter = scope.counter("swap_out")
        self._bytes_in_counter = scope.counter("bytes_in")
        self._bytes_out_counter = scope.counter("bytes_out")
        self._wait_hist = scope.histogram("wait_ready_s")
        if obs.enabled:
            scope.gauge("move_list_blocks").set_fn(
                lambda: self.move_list.pending_blocks
            )
        _ReclaimDaemon(env, self)

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
        and will be reclaimed by the daemon, so freeing them here would
        double-free.  Blocks handed to an in-flight swap-out are not on
        the request anymore and release through their own completion.
        """
        if kv.gpu_blocks is not None:
            self.gpu_cache.free(kv.gpu_blocks)
            kv.gpu_blocks = None
        if kv.cpu_blocks is not None:
            if kv.last_transfer is not None and not kv.last_transfer.query():
                # Defer to the transfer's completion (rule ❸ discipline).
                self.move_list.add(kv.cpu_blocks, kv.last_transfer)
                self._kick_daemon()
            else:
                self.cpu_cache.free(kv.cpu_blocks)
            kv.cpu_blocks = None
        kv.location = "none"
        self.stats.charge_control(1)

    def gpu_capacity_blocks(self, shape: KvShape, block_tokens: int) -> int:
        """How many more blocks of ``shape`` the GPU cache can hold."""
        return self.gpu_cache.capacity_for(shape, shape.block_bytes(block_tokens))

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

        def release_source() -> None:
            self.inflight_sources.remove(gpu_blocks)
            self.gpu_cache.free(gpu_blocks)

        self.kv_out.copy(self.link.d2h, kv.nbytes, on_done=release_source)
        self.kv_out.record(event)
        kv.last_transfer = event
        kv.location = "cpu"
        self.stats.swap_out_count += 1
        self.stats.bytes_out += kv.nbytes
        self.stats.charge_control(2)
        self._swap_out_counter.inc()
        self._bytes_out_counter.inc(kv.nbytes)
        if self._tracer.enabled:
            self._tracer.instant(
                "swap_out", cat="kv", track=self.name,
                request_id=kv.request_id, nbytes=kv.nbytes,
            )
        return event

    # -- swap-in ----------------------------------------------------------------
    def swap_in(self, kv: RequestKv) -> CudaEvent:
        """Bring a request's KV back onto this GPU (async).

        The CPU source blocks go onto the move list (rule ❸) and are
        reclaimed by the daemon once the copy completes.
        """
        if kv.location != "cpu":
            raise ValueError(f"request {kv.request_id} is not in the CPU cache")
        kv.gpu_blocks = self.gpu_cache.alloc(
            kv.shape, kv.block_bytes, kv.block_count
        )
        # Rule ❷: wait for the producing transfer (possibly recorded by a
        # different instance and shared via IPC).
        if kv.last_transfer is not None and not kv.last_transfer.query():
            self.kv_in.wait_event(kv.last_transfer)
            self.stats.charge_control(1)
        event = CudaEvent(self.env, name=f"in.r{kv.request_id}")
        cpu_blocks = kv.cpu_blocks
        kv.cpu_blocks = None
        self.kv_in.copy(self.link.h2d, kv.nbytes)
        self.kv_in.record(event)
        # Rule ❸: source CPU blocks stay unavailable until the copy is done.
        self.move_list.add(cpu_blocks, event)
        self._kick_daemon()
        kv.last_transfer = event
        kv.location = "gpu"
        self.stats.swap_in_count += 1
        self.stats.bytes_in += kv.nbytes
        self.stats.charge_control(3)
        self._swap_in_counter.inc()
        self._bytes_in_counter.inc(kv.nbytes)
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

    # -- internal -----------------------------------------------------------
    def _kick_daemon(self) -> None:
        """Wake the reclaim daemon after adding to the move list."""
        wake = self._daemon_wake
        if wake is not None and not wake.triggered:
            wake.succeed()


class _ReclaimDaemon(ContTask):
    """Reclaim move-list blocks while any are in flight (Fig. 10, step ⑧).

    Reclamation happens on a fixed ``daemon_interval`` tick grid, but the
    daemon parks on a wake event whenever the move list is empty instead
    of polling forever — the idle-polling version dominated the whole
    simulation's event count.  When woken it re-aligns to the grid, so
    blocks are freed at the same instants the always-polling daemon would
    have freed them.

    Continuation state machine: ``_park_or_tick`` either parks on a fresh
    wake event (move list empty) or arms a grid timeout; ``_woken``
    re-aligns to the next grid tick strictly after the add (the add loses
    same-instant ties to an already-queued timeout, hence "strictly
    after"); ``_tick`` reclaims and loops.
    """

    __slots__ = ("_mgr",)

    def __init__(self, env: Environment, mgr: "KvTransferManager") -> None:
        self._mgr = mgr
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        return self._park_or_tick()

    def _park_or_tick(self) -> Event:
        mgr = self._mgr
        if not mgr.move_list.entries:
            mgr._daemon_wake = self.env.event()
            self._send = self._woken
            return mgr._daemon_wake
        self._send = self._tick
        return self.env.timeout(mgr._daemon_interval)

    def _woken(self, value: object) -> Event:
        mgr = self._mgr
        mgr._daemon_wake = None
        interval = mgr._daemon_interval
        remainder = self.env.now % interval
        self._send = self._tick
        return self.env.timeout(
            interval - remainder if remainder > 0.0 else interval
        )

    def _tick(self, value: object) -> Event:
        mgr = self._mgr
        freed = mgr.move_list.reclaim(mgr.cpu_cache)
        if freed:
            mgr.stats.charge_control(1)
        return self._park_or_tick()
