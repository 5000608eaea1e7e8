"""Simulated CUDA streams and events (§5.3, Table 2).

A :class:`CudaStream` is an in-order execution lane: operations enqueued
on it (copies over a PCIe link direction, compute kernels, event
records, event waits) execute sequentially, while separate streams run
concurrently — exactly the semantics Aegaeon relies on to overlap KV
swap-in, KV swap-out, model prefetch, and inference.

:class:`CudaEvent` reproduces the Table 2 API surface:

* ``record(stream)``      — ``cudaEventRecord``: capture current work
* ``query()``             — ``cudaEventQuery``: non-blocking completion test
* ``stream.wait_event``   — ``cudaStreamWaitEvent``: future work waits

Table 2's IPC calls (``cudaIpcGet/OpenEventHandle``) have no
counterpart: every simulated process shares one address space, so an
event is handed over as an object.

Copies on two streams bound to the *same* link direction serialize on the
link (one copy engine per direction), which is how real hardware behaves
and why the prefetch stream can hide, but not accelerate, transfers.

Each stream's ops run on one generator process, its lane, in a single
frame: the lane yields each op's waits itself, and only a chunked
weight load goes through ``yield from``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from ..hardware.interconnect import Link
from ..obs import NULL_OBS, Observability
from ..sim import Environment, Event

__all__ = ["CudaEvent", "CudaStream", "synchronize_all"]

class CudaEvent:
    """A CUDA event: a marker in a stream's work queue.

    The simulation event behind :meth:`wait` is created lazily, by the
    first wait issued while the work is still pending.  Many KV transfer
    events are never waited on: a swap-in's event only guards its source
    blocks on a move list, which completion notifies with a plain call,
    and a completion nobody waits on would still cost the kernel one
    heap entry.  A decode run that could see the transfer's request
    join its ready set is told the same way, and split.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._completion: Optional[Event] = None
        self.recorded = False
        self.completed_at: Optional[float] = None
        # The move list whose blocks this event guards (set by
        # MoveList.add), told when the work completes.
        self._move_list = None
        # The decode run whose batch waits on this transfer (rule ❶),
        # split when it completes; it watches the event while it is live
        # (``core.instance.DecodeRun``).
        self._run = None

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
        completion = self._completion
        if completion is None:
            completion = self._completion = self.env.event()
        return completion

    # -- internal ----------------------------------------------------------
    def _complete(self) -> None:
        if self.completed_at is None:
            self.completed_at = self.env.now
            if self._completion is not None:
                self._completion.succeed()
            if self._move_list is not None:
                self._move_list._completed(self)
            if self._run is not None:
                self._run.split()

    def __repr__(self) -> str:
        state = "done" if self.query() else "pending"
        label = self.name or f"{id(self):#x}"
        return f"<CudaEvent {label} {state}>"


class CudaStream:
    """An in-order work queue executed by a dedicated lane process.

    The queue is a plain deque plus the one event the lane parks on
    while the queue is empty.  Enqueueing onto a busy stream schedules
    nothing; enqueueing onto an idle one succeeds the parked event with
    the op, so the kernel only ever sees events the lane waits on.  The
    stream is also the owner of its lane's load runs
    (:class:`~repro.transfer.loader.LoadRun`): a run counts and traces
    the ops it lands through the stream.
    """

    def __init__(
        self, env: Environment, name: str = "stream", obs: Observability = NULL_OBS
    ):
        self.env = env
        self.name = name
        self._ops: deque[tuple] = deque()
        self._parked: Optional[Event] = None
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
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        self._enqueue(("copy", link, nbytes, on_done))

    def compute(self, duration: float, on_done: Optional[Callable[[], None]] = None) -> None:
        """Enqueue a kernel of fixed ``duration`` seconds."""
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        self._enqueue(("compute", duration, on_done))

    def load(
        self,
        link: Link,
        nbytes: int,
        chunks: int,
        stall: float,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue a chunked weight load: ``chunks`` times a ``stall``-second
        compute, then an ``nbytes`` copy over ``link``.

        Counted as its ``2 * chunks`` stall and copy ops; ``on_done``
        runs when the last copy lands.  The lane retires uncontended
        chunks in runs (``transfer.loader.LoadRun``), so a chunk's
        counters, ops and spans land when its run ends or is split.
        """
        if chunks < 1:
            raise ValueError(f"a load needs at least one chunk, got {chunks}")
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        if stall < 0:
            raise ValueError(f"negative stall: {stall}")
        self._enqueue(
            ("load", link, (chunks, nbytes, stall, nbytes, stall), on_done),
            2 * chunks,
        )

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
    def _finish_op(self) -> None:
        self._depth -= 1
        self.ops_executed += 1

    def _copied(self, link: Link, nbytes: int, duration: float, start: float,
                on_done: Optional[Callable[[], None]]) -> None:
        """A copy ended: count its bytes, free the link, trace, finish."""
        link.bytes_moved += nbytes
        link.busy_time += duration
        link.release()
        if self._tracer.enabled:
            self._tracer.complete(
                "copy", cat="stream", track=self.name,
                start=start, end=self.env.now, nbytes=nbytes,
            )
        if on_done is not None:
            on_done()
        self._finish_op()

    # -- LoadRun owner protocol ------------------------------------------------
    def _landed_ops(self, run, first: int, stop: int) -> None:
        """A load run landed its ops ``first`` to ``stop - 1`` (even ones
        stalls, odd ones copies): count them, and trace each in order."""
        count = stop - first
        self._depth -= count
        self.ops_executed += count
        tracer = self._tracer
        if tracer.enabled:
            for op in range(first, stop):
                _, start, end, nbytes, _ = run._op(op)
                if op & 1:
                    tracer.complete(
                        "copy", cat="stream", track=self.name,
                        start=start, end=end, nbytes=nbytes,
                    )
                else:
                    tracer.complete(
                        "compute", cat="stream", track=self.name, start=start, end=end,
                    )

    def _landed_stall(self, stall_start, stall_end) -> None:
        """A stall op of a load is done (landed by a run, or run plainly)."""
        self._finish_op()
        if self._tracer.enabled:
            self._tracer.complete(
                "compute", cat="stream", track=self.name,
                start=stall_start, end=stall_end,
            )

    def _enqueue(self, op: tuple, count: int = 1) -> None:
        self._depth += count
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed(op)
        else:
            self._ops.append(op)


def _lane(env: Environment, stream: CudaStream) -> Generator:
    """The stream's in-order lane: one generator process per stream.

    Plain copies, computes, records and event waits run inline in this
    frame; only a load op goes through ``yield from`` (:func:`_load`).
    The next op dispatches directly while nothing else is due at
    ``now`` (its dispatch event would be the very next pop), and behind
    everything already scheduled otherwise.  Records complete in the
    loop, so a run of them never recurses.  The copy path inlines
    :meth:`Link.transfer` (the lane is a dedicated FIFO): a copy that
    finds the channel free yields only its timeout; a contended copy
    waits on the :meth:`Link.acquire` grant and samples the transfer
    duration *after* it (throttle semantics).
    """
    ops = stream._ops
    tracer = stream._tracer
    while True:
        if ops:
            if env.claim_inline():
                op = ops.popleft()
            else:
                op = yield env.event().succeed(ops.popleft())
        else:
            stream._parked = parked = env.event()
            op = yield parked
        kind = op[0]
        if kind == "copy":
            _, link, nbytes, on_done = op
            start = env.now
            grant = link.acquire()
            if grant is not None:
                yield grant
            # Sampled after the grant: a copy that queued behind others
            # sees the link bandwidth at its actual start time.
            duration = link.transfer_time(nbytes)
            yield env.timeout(duration)
            stream._copied(link, nbytes, duration, start, on_done)
            continue  # _copied finished the op
        elif kind == "compute":
            _, duration, on_done = op
            start = env.now
            yield env.timeout(duration)
            if tracer.enabled:
                tracer.complete(
                    "compute", cat="stream", track=stream.name, start=start, end=env.now
                )
            if on_done is not None:
                on_done()
        elif kind == "record":
            op[1]._complete()
        elif kind == "wait_event":
            yield op[1].wait()
        elif kind == "load":
            yield from _load(env, stream, op)
            continue  # its ops were counted as they landed
        else:  # pragma: no cover - construction is internal
            raise AssertionError(f"unknown stream op {kind!r}")
        stream._depth -= 1
        stream.ops_executed += 1


def _load(env: Environment, stream: CudaStream, op: tuple) -> Generator:
    """Run a load op's stalls and copies on the lane.

    Op ``2 * i`` is chunk ``i``'s stall and ``2 * i + 1`` its copy (a
    lane's load has equal chunks, ``CudaStream.load``).  A stall start
    that finds the link free forms a :class:`~repro.transfer.loader.LoadRun`
    with the stream as its owner; the run lands its chunks through the
    stream, and a split hands back the op in flight (``run.handed``),
    which the lane finishes before going on op by op.
    """
    _, link, chunks, on_done = op
    last = 2 * chunks[0] - 1
    index = 0
    while True:
        if index & 1:
            start = env.now
            grant = link.acquire()
            if grant is not None:
                yield grant
            duration = link.transfer_time(chunks[1])
            yield env.timeout(duration)
            stream._copied(link, chunks[1], duration, start,
                           on_done if index == last else None)
        elif link._busy:
            start = env.now
            yield env.timeout(chunks[2])
            stream._landed_stall(start, env.now)
        else:
            run = _loader.LoadRun(link, chunks, index >> 1, stream)
            yield run.timeout
            if run.handed is None:
                run.finish()
                if on_done is not None:
                    on_done()
                return
            chunk, in_copy, start, nbytes, duration = run.handed
            if in_copy:
                index = 2 * chunk + 1
                stream._copied(link, nbytes, duration, start,
                               on_done if index == last else None)
            else:
                index = 2 * chunk
                stream._landed_stall(start, env.now)
        if index == last:
            return
        index += 1
        if not env.claim_inline():
            yield env.event().succeed()


def synchronize_all(env: Environment, streams: list[CudaStream]) -> Event:
    """Device-wide synchronize: fires when every stream has drained.

    ``cudaDeviceSynchronize`` semantics.  No serving path calls it (the
    unoptimized switch path drains through ``KvTransferManager.drain``);
    the stream differential drives it against the reference lanes.
    """
    return env.all_of([stream.synchronize() for stream in streams])


# Bound last: ``loader`` imports this module for CudaEvent and CudaStream.
from . import loader as _loader  # noqa: E402
