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
chunks on a stream as one load op and returns the :class:`CudaEvent`
behind them, with no process of its own.

Only the link can observe a chunk boundary, so both retire chunks in
runs (:class:`LoadRun`): from a stall start that finds the link free,
one timeout at the last copy's end stands for every stall and copy
after it, their times replayed with the chain's own float arithmetic.
A claim on the link, a throttle or restore of it, or an interrupt of
the loading process splits the run at ``now``; the owner then goes on
chunk op by chunk op until its next stall start finds the link free.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..hardware.interconnect import DuplexLink, Link
from ..memory.model_cache import HostModelCache
from ..models.latency import NAIVE_LOAD_BANDWIDTH, PCIE_BETA
from ..sim import Environment, Event
from .streams import CudaEvent, CudaStream

__all__ = ["CheckpointFetchError", "LoadRun", "QuickLoader", "NaiveLoader"]

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
        yield from _drive(self.link.h2d, self._chunks(nbytes))
        self.model_cache.unpin(model)

    def prefetch(self, model: str, nbytes: int, stream: CudaStream) -> CudaEvent:
        """Enqueue a load of a host-cached checkpoint on ``stream``.

        A plain call, not a process: the chunks' stalls and copies are
        queued on ``stream`` as one load op and the returned
        :class:`CudaEvent` completes when the last chunk lands.  The
        checkpoint stays pinned until then; the last copy's ``on_done``
        unpins it.  Raises ``LookupError`` if the checkpoint is not in
        the host cache (a prefetch never races a remote fetch).
        """
        cache = self.model_cache
        if not cache.lookup(model):
            raise LookupError(f"cannot prefetch {model!r}: not in the host cache")
        cache.pin(model)
        self.loads += 1
        stream.load(
            self.link.h2d,
            min(self.chunk_bytes, nbytes),
            max(1, -(-nbytes // self.chunk_bytes)),
            self._stall_per_chunk(),
            on_done=lambda: cache.unpin(model),
        )
        return stream.record(CudaEvent(self.env, name=f"load.{model}"))

    def _chunks(self, nbytes: int) -> tuple:
        """The synchronous load of ``nbytes`` as a :class:`LoadRun` chunk
        tuple: full chunks, then a last one whose stall scales with it."""
        chunk_bytes = self.chunk_bytes
        stall_per_chunk = self._stall_per_chunk()
        count = -(-nbytes // chunk_bytes)
        last = nbytes - (count - 1) * chunk_bytes
        # Each stall is ``stall_per_chunk * chunk / chunk_bytes``, as the
        # chunk loop always computed it, so the floats stay identical.
        return (
            count,
            chunk_bytes,
            stall_per_chunk * chunk_bytes / chunk_bytes,
            last,
            stall_per_chunk * last / chunk_bytes,
        )

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


class LoadRun:
    """One uncontended run of a weight load's chunks on one link.

    A load is a chunk tuple ``(count, nbytes, stall, last_nbytes,
    last_stall)``: every chunk stalls, then copies over the link; all
    but the last stall ``stall`` seconds and copy ``nbytes``.  A run
    forms at the start of chunk ``first``'s stall when the link is free
    with no queued claim.  It marks the link held, replays every chunk
    time the per-chunk chain would schedule (``t + stall``, then
    ``t + link.transfer_time(chunk)``), and arms one ``env.timeout_at``
    at the last copy's end.  The owner waits on :attr:`timeout` and
    calls :meth:`finish` when it fires.

    :meth:`split` ends the run early at ``now``: ``Link.acquire``,
    ``Link.throttle`` and ``Link.restore`` call it through the link's
    ``_run`` slot, and a synchronous owner calls it when an interrupt
    unwinds it.  A boundary at exactly ``now`` counts as passed.  The
    split lands every finished chunk in chunk order, cancels the
    timeout, and hands the owner the op in flight: a stall that ends at
    its boundary (the link free meanwhile), or a copy that holds the
    link until its end.  A run split at its very end keeps its timeout,
    which is due at ``now``.  :meth:`settle` lands the same chunks
    without ending the run.

    ``owner`` is the :class:`CudaStream` whose lane drives a prefetch
    (it also counts the lane's ops and traces their spans as they
    land), or None for a synchronous load driven by :func:`_drive`.
    Either way the process waiting on :attr:`timeout` is moved to the
    handed op's end, and reads :attr:`handed` when it resumes.
    """

    __slots__ = (
        "link", "chunks", "first", "start", "duration", "last_duration",
        "timeout", "owner", "handed", "stalled",
    )

    def __init__(self, link: Link, chunks: tuple, first: int, owner=None):
        count, nbytes, stall, last_nbytes, last_stall = chunks
        env = link.env
        self.link = link
        self.chunks = chunks
        self.first = first
        self.owner = owner
        #: ``(chunk index, in copy)`` of the op a split handed over.
        self.handed: Optional[tuple[int, bool]] = None
        #: Chunk ``first``'s stall has landed (:meth:`settle`); ``start``
        #: is then its end.
        self.stalled = False
        self.start = t = env.now
        # The bandwidth cannot change inside a run (a throttle splits it
        # first), so each chunk size has one duration.
        self.duration = duration = link.transfer_time(nbytes)
        self.last_duration = link.transfer_time(last_nbytes)
        for _ in range(first, count - 1):
            t += stall
            t += duration
        t += last_stall
        self.timeout = env.timeout_at(t + self.last_duration)
        link._busy = True
        link._run = self

    def _replay(self):
        """Each chunk's ``(index, stall start, stall end, copy end, nbytes,
        duration)``, with the arithmetic :meth:`__init__` used; the stall
        start is None for a stall that has already landed."""
        count, nbytes, stall, last_nbytes, last_stall = self.chunks
        duration = self.duration
        t = self.start
        stalled = self.stalled
        for index in range(self.first, count):
            if index == count - 1:
                nbytes, stall, duration = last_nbytes, last_stall, self.last_duration
            if stalled:
                stall_start, stall_end, stalled = None, t, False
            else:
                stall_start, stall_end = t, t + stall
            copy_end = stall_end + duration
            yield index, stall_start, stall_end, copy_end, nbytes, duration
            t = copy_end

    def _land(self, stall_start, stall_end, copy_end, nbytes, duration) -> None:
        link = self.link
        link.bytes_moved += nbytes
        link.busy_time += duration
        if self.owner is not None:
            self.owner._landed(stall_start, stall_end, copy_end, nbytes)

    def finish(self) -> None:
        """Land every chunk and free the link; the owner calls this when
        :attr:`timeout` fires (a no-op after a split at the run's end)."""
        self.timeout = None
        link = self.link
        if link._run is not self:
            return
        link._run = None
        link._busy = False
        for _, stall_start, stall_end, copy_end, nbytes, duration in self._replay():
            self._land(stall_start, stall_end, copy_end, nbytes, duration)

    def settle(self) -> None:
        """Land what has finished by ``now`` and leave the run going.

        Every chunk whose copy has ended lands, as in :meth:`split`, and
        so does the stall in flight if it has ended; nothing is handed
        over and the timeout stands.  :meth:`Link.settle` calls this
        when a serve collects its results, so counters and spans read
        after a deadline cut the serve short match the per-chunk chain.
        """
        now = self.link.env.now
        for index, stall_start, stall_end, copy_end, nbytes, duration in self._replay():
            if copy_end > now:
                break
            self._land(stall_start, stall_end, copy_end, nbytes, duration)
            self.first = index + 1
            self.start = copy_end
            self.stalled = False
        else:
            return
        if stall_start is not None and now >= stall_end:
            if self.owner is not None:
                self.owner._landed_stall(stall_start, stall_end)
            self.start = stall_end
            self.stalled = True

    def split(self) -> None:
        """End the run at ``now``; see the class docstring."""
        link = self.link
        link._run = None
        now = link.env.now
        for index, stall_start, stall_end, copy_end, nbytes, duration in self._replay():
            if copy_end > now:
                break
            self._land(stall_start, stall_end, copy_end, nbytes, duration)
        else:
            link._busy = False
            return
        timeout = self.timeout
        self.timeout = None
        waiter = timeout._waiter
        in_copy = now >= stall_end
        self.handed = (index, in_copy)
        if not in_copy:
            link._busy = False
        owner = self.owner
        env = link.env
        if owner is not None:
            if in_copy:
                event = owner._take_copy(stall_start, stall_end, copy_end,
                                         nbytes, duration)
            else:
                event = owner._take_stall(stall_start, stall_end)
        elif in_copy:
            event = _hold(link, nbytes, duration, env.timeout_at(copy_end))
        elif waiter is not None:
            event = env.timeout_at(stall_end)
        if waiter is not None:
            waiter._wait_instead(event)
        else:
            # An interrupt already detached (and cancelled) the wait.
            timeout.cancel()


def _drive(link: Link, chunks: tuple) -> Generator:
    """Drive a load's chunks from the calling process.

    Each stall start that finds the link free forms a :class:`LoadRun`;
    otherwise, and after a split, the chunk goes op by op: a stall
    timeout, then :func:`_copy`.
    """
    count, nbytes, stall, last_nbytes, last_stall = chunks
    env = link.env
    index = 0
    while index < count:
        last = index == count - 1
        if not link._busy:
            run = LoadRun(link, chunks, index)
            try:
                yield run.timeout
            except BaseException:
                # The loader unwinds (an interrupt): the chunks landed
                # so far count, and a copy in flight still holds the
                # link until it ends.
                if link._run is run:
                    run.split()
                raise
            if run.handed is None:
                run.finish()
                return
            index, in_copy = run.handed
            last = index == count - 1
            if in_copy:
                index += 1
                continue
        else:
            yield env.timeout(last_stall if last else stall)
        yield from _copy(link, last_nbytes if last else nbytes)
        index += 1


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
    return _hold(link, nbytes, duration, link.env.timeout(duration))


def _hold(link: Link, nbytes: int, duration: float, end: Event) -> Event:
    """Count the copy's bytes and release the held ``link`` when ``end``
    fires, before whoever waits on it resumes."""

    def settle(_: Event) -> None:
        link.bytes_moved += nbytes
        link.busy_time += duration
        link.release()

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
