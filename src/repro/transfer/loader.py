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

from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Generator, Optional

from ..hardware.interconnect import DuplexLink, Link
from ..memory.model_cache import HostModelCache
from ..models.latency import NAIVE_LOAD_BANDWIDTH, PCIE_BETA
from ..sim import Environment, Event, Run
from .streams import CudaEvent, CudaStream

__all__ = ["CheckpointFetchError", "LoadRun", "QuickLoader", "NaiveLoader"]

#: Base of the exponential backoff between remote fetch attempts,
#: seconds (doubles per retry).
FETCH_BACKOFF_BASE = 0.05

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
        # Retries after a failed fetch before CheckpointFetchError.
        self.max_fetch_retries = 4
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
            yield self.env.timeout(FETCH_BACKOFF_BASE * (2**attempt))
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


class LoadRun(Run):
    """One uncontended run of a weight load's chunks on one link.

    A load is a chunk tuple ``(count, nbytes, stall, last_nbytes,
    last_stall)``: every chunk stalls, then copies over the link; all
    but the last stall ``stall`` seconds and copy ``nbytes``.  A run
    forms at the start of chunk ``first``'s stall when the link is free
    with no queued claim.  It marks the link held and lays out each
    chunk's stall and copy as two intervals of a :class:`~repro.sim.Run`
    (``t + stall``, then ``t + link.transfer_time(chunk)``, the per-chunk
    chain's arithmetic), so one timeout at the last copy's end retires
    them all.  The owner waits on :attr:`timeout` and calls
    :meth:`finish` when it fires.

    :meth:`split` ends the run early at ``now``: ``Link.acquire``,
    ``Link.throttle`` and ``Link.restore`` call it through the link's
    ``_run`` slot, and a synchronous owner calls it when an interrupt
    unwinds it.  A boundary at exactly ``now`` counts as passed (the
    split settles first).  The split lands every finished op in order
    and hands the owner the op in flight: a stall that ends at its
    boundary (the link free meanwhile), or a copy that holds the link
    until its end.  A run split at its very end keeps its timeout,
    which is due at ``now``.  :meth:`settle` lands the same ops without
    ending the run.

    ``owner`` is the :class:`CudaStream` whose lane drives a prefetch
    (it also counts the lane's ops and traces their spans as they
    land), or None for a synchronous load driven by :func:`_drive`.
    Either way the process waiting on :attr:`timeout` is moved to the
    handed op's end, and reads :attr:`handed` when it resumes.
    """

    __slots__ = ("link", "chunks", "base", "duration", "last_duration", "owner", "handed")

    def __init__(self, link: Link, chunks: tuple, first: int, owner=None):
        count, nbytes, stall, last_nbytes, last_stall = chunks
        self.link = link
        self.chunks = chunks
        self.base = first
        self.owner = owner
        #: ``(chunk index, in copy)`` of the op a split handed over.
        self.handed: Optional[tuple[int, bool]] = None
        # The bandwidth cannot change inside a run (a throttle splits it
        # first), so each chunk size has one duration.
        self.duration = duration = link.transfer_time(nbytes)
        self.last_duration = last_duration = link.transfer_time(last_nbytes)
        # ``t + stall``, then ``t + duration``, chunk by chunk: a left
        # fold, so accumulate gives each end the chain's own float.
        steps = [stall, duration] * (count - 1 - first) + [last_stall, last_duration]
        ends = list(accumulate(steps, initial=link.env.now))
        del ends[0]
        Run.__init__(self, link.env, ends)
        link._busy = True
        link._run = self

    @property
    def first(self) -> int:
        """The first chunk not wholly landed."""
        return self.base + (self.landed >> 1)

    @property
    def stalled(self) -> bool:
        """Chunk :attr:`first`'s stall has landed (:meth:`settle`)."""
        return bool(self.landed & 1)

    def _op(self, op: int) -> tuple:
        """Op ``op``'s ``(chunk index, start, end, nbytes, duration)``:
        chunk ``base + op // 2``'s stall for an even ``op``, its copy
        for an odd one."""
        index = self.base + (op >> 1)
        if index == self.chunks[0] - 1:
            nbytes, duration = self.chunks[3], self.last_duration
        else:
            nbytes, duration = self.chunks[1], self.duration
        start = self.ends[op - 1] if op else self.start
        return index, start, self.ends[op], nbytes, duration

    def _replay(self):
        """Each chunk not wholly landed: ``(index, stall start, stall end,
        copy end, nbytes, duration)``, the stall start None for a stall
        that has already landed."""
        op = self.landed & ~1
        stalled = self.stalled
        while op < len(self.ends):
            index, start, stall_end, nbytes, duration = self._op(op)
            yield (index, None if stalled else start, stall_end,
                   self.ends[op + 1], nbytes, duration)
            stalled = False
            op += 2

    def land(self, first: int, stop: int) -> None:
        link = self.link
        copies = len(range(first | 1, stop, 2))
        if copies:
            # Ops ``first`` to ``stop - 1`` hold ``copies`` copies, the
            # load's last (shorter) one among them if ``stop`` is the end.
            last = stop == len(self.ends)
            full = copies - last
            link.bytes_moved += full * self.chunks[1] + (self.chunks[3] if last else 0)
            busy = reduce(add, repeat(self.duration, full), link.busy_time)
            link.busy_time = busy + self.last_duration if last else busy
        if self.owner is not None:
            self.owner._landed_ops(self, first, stop)

    def hand(self, op: int) -> Optional[Event]:
        index, start, end, nbytes, duration = self._op(op)
        in_copy = bool(op & 1)
        self.handed = (index, in_copy)
        owner = self.owner
        if owner is not None:
            if in_copy:
                return owner._take_copy(start, end, nbytes, duration)
            return owner._take_stall(start, end)
        env = self.link.env
        if in_copy:
            return _hold(self.link, nbytes, duration, env.timeout_at(end))
        return None if self.timeout._waiter is None else env.timeout_at(end)

    def finish(self) -> None:
        """Land every op and free the link; the owner calls this when
        :attr:`timeout` fires (a no-op after a split at the run's end)."""
        link = self.link
        if link._run is self:
            link._run = None
            link._busy = False
        Run.finish(self)

    def split(self) -> None:
        """End the run at ``now``; see the class docstring."""
        link = self.link
        link._run = None
        Run.settle(self)
        Run.split(self)
        if self.handed is None or not self.handed[1]:
            link._busy = False


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
