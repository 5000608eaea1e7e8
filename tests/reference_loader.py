"""Per-chunk weight loads: the oracle for ``repro.transfer.loader``'s runs.

``load`` and ``prefetch`` below are ``QuickLoader``'s methods as they
stood before load runs, and ``_copy`` / ``_start_copy`` the synchronous
copy they drove, kept verbatim apart from this paragraph and absolute
imports.  Every chunk is two waits: a stall timeout, then a copy that
claims the link, so every chunk boundary is an event and every claim,
throttle or interrupt meets the link exactly as the op chain leaves
it.  :func:`per_chunk` installs them in place of the production
methods, so the differential test in ``test_load_runs.py`` can check
that runs grant the same claims at the same instants, land the same
bytes and busy time, and complete the same records and unpins.  The
methods' own docstrings are their original descriptions.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Iterator

from repro.hardware.interconnect import Link
from repro.sim import Event
from repro.transfer.loader import QuickLoader
from repro.transfer.streams import CudaEvent, CudaStream

__all__ = ["load", "per_chunk", "prefetch"]


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


@contextmanager
def per_chunk() -> Iterator[None]:
    """Run every ``QuickLoader`` load chunk by chunk while active."""
    original = QuickLoader.load, QuickLoader.prefetch
    QuickLoader.load, QuickLoader.prefetch = load, prefetch
    try:
        yield
    finally:
        QuickLoader.load, QuickLoader.prefetch = original
