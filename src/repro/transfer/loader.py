"""Model-weight loading (§5.2 "Quick model loading", Figure 9 steps 3.a/3.b).

Two loaders are modelled:

* :class:`QuickLoader` — Aegaeon's path: checkpoints cached in the host
  Model Cache, staged through a page-locked Stage Buffer, copied in a
  multi-threaded, chunked, pipelined manner.  Sustains
  ``pcie_bandwidth * beta`` (20 GB/s on PCIe 4.0 with the paper's
  profiled beta = 0.625), i.e. "under one second" for the 13 GB shard of
  a 13B model at TP=2.  A cache miss first fetches the checkpoint from
  the remote registry.

* :class:`NaiveLoader` — the unoptimized inference-engine path, which
  achieves only 2.83 GB/s (the paper's Figure 7 microbenchmark: ~4.6 s
  for the same shard).

Both issue their device copies through the GPU's h2d link, so loading
contends with KV swap-ins exactly as it would on real hardware.  A
synchronous load drives its chunks from the calling process; a prefetch
(:meth:`QuickLoader.prefetch`) is a plain call that queues the same
chunks on a stream and returns the :class:`CudaEvent` behind them, with
no process of its own.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..hardware.interconnect import DuplexLink, Link
from ..memory.model_cache import HostModelCache
from ..models.latency import NAIVE_LOAD_BANDWIDTH, PCIE_BETA
from ..sim import Environment, Event
from .streams import CudaEvent, CudaStream

__all__ = ["CheckpointFetchError", "QuickLoader", "NaiveLoader"]

GiB = 1024**3


class CheckpointFetchError(RuntimeError):
    """A remote checkpoint fetch failed past the loader's retry budget."""

    def __init__(self, model: str, attempts: int):
        super().__init__(
            f"checkpoint fetch for {model!r} failed {attempts} time(s); "
            "retry budget exhausted"
        )
        self.model = model
        self.attempts = attempts


class QuickLoader:
    """Pipelined, cache-backed weight loader."""

    def __init__(
        self,
        env: Environment,
        link: DuplexLink,
        model_cache: HostModelCache,
        stage_buffer_bytes: int = 2 * GiB,
        beta: float = PCIE_BETA,
        remote_bandwidth: float = 1.5e9,
    ):
        if not 0 < beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        self.env = env
        self.link = link
        self.model_cache = model_cache
        # Double-buffered staging: each in-flight chunk is half the buffer.
        self.chunk_bytes = max(1, stage_buffer_bytes // 2)
        self.beta = beta
        self.remote_bandwidth = remote_bandwidth
        self.loads = 0
        self.remote_fetches = 0
        # Chaos surface: consulted once per remote fetch attempt.  None
        # means the attempt succeeds; a float is the seconds wasted
        # before the failure surfaces (a registry timeout).
        self.fetch_disruptor: Optional[Callable[[str], Optional[float]]] = None
        self.max_fetch_retries = 4
        self.fetch_backoff_base = 0.05  # doubles per retry
        self.fetch_failures = 0
        self.fetch_retries = 0

    # -- estimates (used by the schedulers) -----------------------------------
    def load_time(self, nbytes: int, cached: bool = True) -> float:
        """Estimated load time, excluding link queueing."""
        device_copy = nbytes / (self.link.bandwidth * self.beta)
        if cached:
            return device_copy
        return nbytes / self.remote_bandwidth + device_copy

    # -- loading -----------------------------------------------------------------
    def ensure_cached(self, model: str, nbytes: int) -> Generator:
        """Process: make the checkpoint resident in the host cache.

        Fetch attempts may be failed by an installed ``fetch_disruptor``;
        each failure wastes its reported seconds, then the loader backs
        off exponentially and retries, up to ``max_fetch_retries`` times.
        Exhausting the budget raises :class:`CheckpointFetchError`.
        """
        if self.model_cache.lookup(model):
            return
        attempt = 0
        while True:
            self.remote_fetches += 1
            wasted = (
                self.fetch_disruptor(model)
                if self.fetch_disruptor is not None
                else None
            )
            if wasted is None:
                yield self.env.timeout(nbytes / self.remote_bandwidth)
                self.model_cache.insert(model, nbytes)
                return
            self.fetch_failures += 1
            if wasted > 0:
                yield self.env.timeout(wasted)
            if attempt >= self.max_fetch_retries:
                raise CheckpointFetchError(model, attempt + 1)
            yield self.env.timeout(self.fetch_backoff_base * (2**attempt))
            attempt += 1
            self.fetch_retries += 1

    def load(self, model: str, nbytes: int) -> Generator:
        """Process: load ``nbytes`` of weights onto the device.

        The calling process drives the chunks itself and returns once
        the last one lands; a cache miss first fetches the checkpoint.
        """
        yield from self.ensure_cached(model, nbytes)
        self.model_cache.pin(model)
        self.loads += 1
        stall_per_chunk = self._stall_per_chunk()
        remaining = nbytes
        while remaining > 0:
            chunk = min(self.chunk_bytes, remaining)
            yield self.env.timeout(stall_per_chunk * chunk / self.chunk_bytes)
            yield from _copy(self.link.h2d, chunk)
            remaining -= chunk
        self.model_cache.unpin(model)

    def prefetch(self, model: str, nbytes: int, stream: CudaStream) -> CudaEvent:
        """Enqueue a load of a host-cached checkpoint on ``stream``.

        A plain call, not a process: the chunks' stalls and copies are
        queued on ``stream`` and the returned :class:`CudaEvent`
        completes when the last chunk lands.  The checkpoint stays
        pinned until then; the last copy's ``on_done`` unpins it.
        Raises ``LookupError`` if the checkpoint is not in the host
        cache (a prefetch never races a remote fetch).
        """
        cache = self.model_cache
        if not cache.lookup(model):
            raise LookupError(f"cannot prefetch {model!r}: not in the host cache")
        cache.pin(model)
        self.loads += 1
        stall_per_chunk = self._stall_per_chunk()
        h2d = self.link.h2d
        chunk = min(self.chunk_bytes, nbytes)
        for _ in range(max(1, -(-nbytes // self.chunk_bytes)) - 1):
            stream.compute(stall_per_chunk)
            stream.copy(h2d, chunk)
        stream.compute(stall_per_chunk)
        stream.copy(h2d, chunk, on_done=lambda: cache.unpin(model))
        return stream.record(CudaEvent(self.env, name=f"load.{model}"))

    def _stall_per_chunk(self) -> float:
        """Per-chunk pipeline stall of a full chunk.

        The pageable->pinned staging memcpy overlaps the previous
        chunk's DMA, but only partially; the profiled beta captures the
        resulting efficiency.
        """
        return (
            self.chunk_bytes / (self.link.bandwidth * self.beta)
            - self.chunk_bytes / self.link.bandwidth
        )


def _copy(link: Link, nbytes: int) -> Generator:
    """Move ``nbytes`` over ``link``, driven inline by the calling process.

    Once claimed, the link is released and the bytes counted by
    callbacks on the caller's own waits, so a loader interrupted
    mid-copy (its instance failed) still leaves the issued DMA holding
    the link until it ends, exactly like a :meth:`Link.transfer` child
    process would, without one.
    """
    grant = link.acquire()
    if grant is not None:
        try:
            yield grant
        except BaseException:
            # Whatever unwinds the loader (an interrupt, or closing its
            # generator), the claim stands and the copy goes ahead.
            grant.callbacks.append(lambda _: _start_copy(link, nbytes))
            raise
    yield _start_copy(link, nbytes)


def _start_copy(link: Link, nbytes: int) -> Event:
    """Occupy the held ``link`` for one copy; returns its end event."""
    duration = link.transfer_time(nbytes)

    def settle(_: Event) -> None:
        link.bytes_moved += nbytes
        link.busy_time += duration
        link.release()

    end = link.env.timeout(duration)
    end.callbacks.append(settle)
    return end


class NaiveLoader:
    """The unoptimized engine loading path (2.83 GB/s end to end)."""

    def __init__(
        self,
        env: Environment,
        link: DuplexLink,
        bandwidth: float = NAIVE_LOAD_BANDWIDTH,
    ):
        self.env = env
        self.link = link
        self.bandwidth = bandwidth
        self.loads = 0

    def load_time(self, nbytes: int) -> float:
        """End-to-end load estimate."""
        return nbytes / self.bandwidth

    def load(self, model: str, nbytes: int) -> Generator:
        """Process: serialized, host-bound weight load."""
        self.loads += 1
        # The device copy itself occupies the link at raw speed; the rest
        # of the time is host-side deserialization stalling the pipeline.
        yield from _copy(self.link.h2d, nbytes)
        host_stall = self.load_time(nbytes) - nbytes / self.link.bandwidth
        if host_stall > 0:
            yield self.env.timeout(host_stall)
