"""Store-backed reference streams: the oracle for ``repro.transfer.streams``.

This is the stream lane as it stood before the queue became a deque with
one parked wake event and ``CudaEvent`` completions became lazy, kept
verbatim apart from this paragraph, absolute imports, and the copy
path, which claims links through ``Link.acquire`` / ``Link.release``
now that ``Link`` owns its channel claim, and the lane driver, now a
generator process like every lifecycle (its waits are unchanged).  The
Store lane is unchanged.
Every enqueue here schedules a put event and every completed event
schedules its completion, waited on or not, so the differential test in
``test_transfer_streams.py`` can check that the production lane drops
only events nobody observes: every callback and host-wait resume must
land at the same time and in the same order.

Original description — simulated CUDA streams and events (§5.3, Table 2).

A :class:`CudaStream` is an in-order execution lane: operations enqueued
on it (copies over a PCIe link direction, compute kernels, event
records, event waits) execute sequentially, while separate streams run
concurrently — exactly the semantics Aegaeon relies on to overlap KV
swap-in, KV swap-out, model prefetch, and inference.

:class:`CudaEvent` reproduces the Table 2 API surface:

* ``record(stream)``      — ``cudaEventRecord``: capture current work
* ``query()``             — ``cudaEventQuery``: non-blocking completion test
* ``stream.wait_event``   — ``cudaStreamWaitEvent``: future work waits

Copies on two streams bound to the *same* link direction serialize on the
link (one copy engine per direction), which is how real hardware behaves
and why the prefetch stream can hide, but not accelerate, transfers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hardware.interconnect import Link
from repro.obs import NULL_OBS, Observability
from repro.sim import Environment, Event

from .reference_resources import Store

__all__ = ["CudaEvent", "CudaStream", "synchronize_all"]

class CudaEvent:
    """A CUDA event: a marker in a stream's work queue."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._completion: Event = env.event()
        self.recorded = False
        self.completed_at: Optional[float] = None

    # -- Table 2 API ------------------------------------------------------
    def query(self) -> bool:
        """``cudaEventQuery``: has the captured work completed?

        An event that was never recorded reports complete (CUDA
        semantics for a fresh event).
        """
        return self.completed_at is not None or not self.recorded

    def wait(self) -> Event:
        """Simulation event to ``yield`` on for host-side synchronization.

        If the work already completed (or nothing was recorded), returns
        an immediately-firing event.
        """
        if self.query():
            done = self.env.event()
            done.succeed()
            return done
        return self._completion

    # -- internal ----------------------------------------------------------
    def _complete(self) -> None:
        if self.completed_at is None:
            self.completed_at = self.env.now
            self._completion.succeed()

    def __repr__(self) -> str:
        state = "done" if self.query() else "pending"
        return f"<CudaEvent {self.name or id(self):#x} {state}>"


class CudaStream:
    """An in-order work queue executed by a dedicated lane process."""

    def __init__(
        self, env: Environment, name: str = "stream", obs: Observability = NULL_OBS
    ):
        self.env = env
        self.name = name
        self._ops: Store = Store(env)
        self._idle: Event = env.event()
        self._idle.succeed()
        self._depth = 0
        self.ops_executed = 0
        self._tracer = obs.tracer
        env.process(_lane(env, self))

    # -- enqueue API --------------------------------------------------------
    def copy(
        self,
        link: Link,
        nbytes: int,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue an async memcpy over ``link`` (``cudaMemcpyAsync``)."""
        self._enqueue(("copy", link, nbytes, on_done))

    def compute(self, duration: float, on_done: Optional[Callable[[], None]] = None) -> None:
        """Enqueue a kernel of fixed ``duration`` seconds."""
        self._enqueue(("compute", duration, on_done))

    def record(self, event: CudaEvent) -> CudaEvent:
        """``cudaEventRecord``: event completes when prior work drains."""
        event.recorded = True
        self._enqueue(("record", event))
        return event

    def wait_event(self, event: CudaEvent) -> None:
        """``cudaStreamWaitEvent``: later work waits for ``event``."""
        self._enqueue(("wait_event", event))

    def synchronize(self) -> Event:
        """Host-side: simulation event firing when the queue drains."""
        marker = CudaEvent(self.env, name=f"{self.name}.sync")
        self.record(marker)
        return marker.wait()

    @property
    def pending_ops(self) -> int:
        """Operations enqueued but not yet completed."""
        return self._depth

    # -- internal -------------------------------------------------------------
    def _enqueue(self, op: tuple) -> None:
        self._depth += 1
        self._ops.put(op)


def _lane(env: Environment, stream: "CudaStream"):
    """The in-order lane driver, one generator frame per stream.

    The copy path inlines :meth:`Link.transfer` (the lane is a
    dedicated FIFO), keeping the exact event sequence of the delegated
    generator: a copy that finds the channel free yields only the
    timeout; a contended copy waits on the :meth:`Link.acquire` grant
    and samples the transfer duration *after* it (throttle semantics).
    """
    while True:
        op = yield stream._ops.get()
        kind = op[0]
        if kind == "copy":
            _, link, nbytes, on_done = op
            if nbytes < 0:
                raise ValueError("cannot transfer a negative byte count")
            start = env.now
            grant = link.acquire()
            if grant is not None:
                yield grant
            # Duration is sampled after the grant, so a transfer that queued
            # behind others sees the link bandwidth at its actual start time.
            duration = link.transfer_time(nbytes)
            yield env.timeout(duration)
            link.bytes_moved += nbytes
            link.busy_time += duration
            link.release()
            if stream._tracer.enabled:
                stream._tracer.complete(
                    "copy", cat="stream", track=stream.name,
                    start=start, end=env.now, nbytes=nbytes,
                )
            if on_done is not None:
                on_done()
        elif kind == "compute":
            _, duration, on_done = op
            start = env.now
            yield env.timeout(duration)
            if stream._tracer.enabled:
                stream._tracer.complete(
                    "compute", cat="stream", track=stream.name,
                    start=start, end=env.now,
                )
            if on_done is not None:
                on_done()
        elif kind == "record":
            op[1]._complete()
        elif kind == "wait_event":
            yield op[1].wait()
        else:  # pragma: no cover - construction is internal
            raise AssertionError(f"unknown stream op {kind!r}")
        stream._depth -= 1
        stream.ops_executed += 1


def synchronize_all(env: Environment, streams: list[CudaStream]) -> Event:
    """Device-wide synchronize: fires when every stream has drained.

    This is the blocking synchronization the *unoptimized* auto-scaling
    path uses between stages (cudaDeviceSynchronize semantics).
    """
    return env.all_of([stream.synchronize() for stream in streams])
