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
* ``ipc_handle()`` / ``from_ipc_handle()`` — ``cudaIpcGet/OpenEventHandle``

Copies on two streams bound to the *same* link direction serialize on the
link (one copy engine per direction), which is how real hardware behaves
and why the prefetch stream can hide, but not accelerate, transfers.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Optional

from ..hardware.interconnect import Link
from ..obs import NULL_OBS, Observability
from ..sim import ContTask, Environment, Event

__all__ = ["CudaEvent", "CudaStream", "synchronize_all"]

_handle_counter = itertools.count(1)
_HANDLE_REGISTRY: dict[int, "CudaEvent"] = {}


class CudaEvent:
    """A CUDA event: a marker in a stream's work queue.

    The simulation event behind :meth:`wait` is created lazily, by the
    first wait issued while the work is still pending.  Many KV transfer
    events are never waited on: a swap-in's event only guards its source
    blocks on a move list, which completion notifies with a plain call,
    and a completion nobody waits on would still cost the kernel one
    heap entry.
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

    def ipc_handle(self) -> int:
        """``cudaIpcGetEventHandle``: opaque handle for another process."""
        handle = next(_handle_counter)
        _HANDLE_REGISTRY[handle] = self
        return handle

    @classmethod
    def from_ipc_handle(cls, handle: int) -> "CudaEvent":
        """``cudaIpcOpenEventHandle``: reconstruct an event from a handle."""
        try:
            return _HANDLE_REGISTRY[handle]
        except KeyError:
            raise ValueError(f"unknown IPC event handle {handle}") from None

    # -- internal ----------------------------------------------------------
    def _complete(self) -> None:
        if self.completed_at is None:
            self.completed_at = self.env.now
            if self._completion is not None:
                self._completion.succeed()
            if self._move_list is not None:
                self._move_list._completed(self)

    def __repr__(self) -> str:
        state = "done" if self.query() else "pending"
        return f"<CudaEvent {self.name or id(self):#x} {state}>"


class CudaStream:
    """An in-order work queue executed by a dedicated continuation task.

    The queue is a plain deque plus the one event the worker parks on
    while the queue is empty.  Enqueueing onto a busy stream schedules
    nothing; enqueueing onto an idle one succeeds the parked event with
    the op, so the kernel only ever sees events the worker waits on.
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
        _StreamWorker(env, self)

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
    def _enqueue(self, op: tuple, count: int = 1) -> None:
        self._depth += count
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed(op)
        else:
            self._ops.append(op)


class _StreamWorker(ContTask):
    """The in-order lane driver, flattened into a continuation machine.

    Each loop iteration of the old generator worker paid a
    ``generator.send`` round-trip per event; the state machine fires the
    next state function directly from the kernel's single-waiter slot.
    The copy path also inlines :meth:`Link.transfer` (the worker is a
    dedicated lane, so FIFO semantics are preserved), keeping the exact
    event sequence of the delegated generator: a copy that finds the
    channel free yields only the timeout; a contended copy waits on the
    :meth:`Link.acquire` grant and samples the transfer duration *after*
    it (throttle semantics).
    """

    __slots__ = (
        "_stream", "_link", "_nbytes", "_on_done", "_op_start", "_duration",
        "_load", "_load_next", "_run",
    )

    def __init__(self, env: Environment, stream: "CudaStream") -> None:
        self._stream = stream
        self._link = None
        self._nbytes = 0
        self._on_done = None
        self._op_start = 0.0
        self._duration = 0.0
        # The load op in progress, the index of its next stall (even)
        # or copy (odd) op, and the run retiring its chunks, if any.
        self._load = None
        self._load_next = 0
        self._run = None
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        return self._next_op()

    def _next_op(self) -> Event:
        # The next op dispatches directly while nothing else is due at
        # ``now`` (its dispatch event would be the very next pop), and
        # behind everything already scheduled otherwise.  Records
        # complete in this loop, so a run of them never recurses.
        stream = self._stream
        ops = stream._ops
        env = self.env
        if self._load is not None:
            # The next stall or copy of the load in progress.
            if not env.claim_inline():
                self._send = self._load_op
                return env.event().succeed()
            return self._load_op(None)
        while ops:
            if not env.claim_inline():
                self._send = self._dispatch
                return env.event().succeed(ops.popleft())
            op = ops.popleft()
            if op[0] != "record":
                return self._dispatch(op)
            op[1]._complete()
            stream._depth -= 1
            stream.ops_executed += 1
        self._send = self._dispatch
        event = env.event()
        stream._parked = event
        return event

    def _dispatch(self, op: tuple) -> Event:
        kind = op[0]
        if kind == "copy":
            return self._copy(op[1], op[2], op[3])
        if kind == "compute":
            _, duration, on_done = op
            self._on_done = on_done
            self._op_start = self.env.now
            self._send = self._compute_done
            return self.env.timeout(duration)
        if kind == "load":
            self._load = op
            self._load_next = 0
            return self._load_op(None)
        if kind == "record":
            op[1]._complete()
            return self._finish_op()
        if kind == "wait_event":
            self._send = self._waited
            return op[1].wait()
        raise AssertionError(  # pragma: no cover - construction is internal
            f"unknown stream op {kind!r}"
        )

    def _copy(self, link: Link, nbytes: int, on_done) -> Event:
        self._link = link
        self._nbytes = nbytes
        self._on_done = on_done
        self._op_start = self.env.now
        grant = link.acquire()
        if grant is not None:
            self._send = self._copy_granted
            return grant
        return self._copy_granted(None)

    # -- load ops ---------------------------------------------------------------
    def _load_op(self, value: object) -> Event:
        """Dispatch the load's next op: a stall start forms a run when the
        link is free; otherwise the op runs as a plain compute or copy."""
        _, link, chunks, on_done = self._load
        index = self._load_next
        self._load_next = index + 1
        if not index & 1:
            if not link._busy:
                self._run = run = _loader.LoadRun(link, chunks, index >> 1, self)
                self._send = self._run_done
                return run.timeout
            self._on_done = None
            self._op_start = self.env.now
            self._send = self._compute_done
            return self.env.timeout(chunks[2])
        # A lane's load has equal chunks (``CudaStream.load``).
        if index + 1 == 2 * chunks[0]:
            self._load = None
            return self._copy(link, chunks[1], on_done)
        return self._copy(link, chunks[1], None)

    def _run_done(self, value: object) -> Event:
        run = self._run
        self._run = None
        run.finish()
        on_done = self._load[3]
        self._load = None
        if on_done is not None:
            on_done()
        return self._next_op()

    def _landed(self, stall_start, stall_end, copy_end, nbytes) -> None:
        """A run landed one chunk: its stall op (unless a settle landed
        it already, ``stall_start`` None) and its copy op are done."""
        if stall_start is not None:
            self._landed_stall(stall_start, stall_end)
        stream = self._stream
        stream._depth -= 1
        stream.ops_executed += 1
        if stream._tracer.enabled:
            stream._tracer.complete(
                "copy", cat="stream", track=stream.name,
                start=stall_end, end=copy_end, nbytes=nbytes,
            )

    def _landed_stall(self, stall_start, stall_end) -> None:
        """A run landed one chunk's stall op."""
        stream = self._stream
        stream._depth -= 1
        stream.ops_executed += 1
        if stream._tracer.enabled:
            stream._tracer.complete(
                "compute", cat="stream", track=stream.name,
                start=stall_start, end=stall_end,
            )

    def _take_stall(self, index, stall_start, stall_end) -> Event:
        """A split handed over chunk ``index``'s stall, in flight."""
        self._run = None
        self._load_next = 2 * index + 1
        self._on_done = None
        self._op_start = stall_start
        self._send = self._compute_done
        return self.env.timeout_at(stall_end)

    def _take_copy(self, run, index, stall_start, stall_end, copy_end,
                   nbytes, duration) -> Event:
        """A split handed over chunk ``index``'s copy, in flight (its
        stall lands now, unless a settle landed it already)."""
        self._run = None
        if stall_start is not None:
            self._landed_stall(stall_start, stall_end)
        self._load_next = 2 * index + 2
        self._on_done = None
        if self._load_next == 2 * run.chunks[0]:
            self._on_done = self._load[3]
            self._load = None
        self._link = run.link
        self._nbytes = nbytes
        self._duration = duration
        self._op_start = stall_end
        self._send = self._copy_finish
        return self.env.timeout_at(copy_end)

    def _copy_granted(self, value: object) -> Event:
        # Duration is sampled after the grant, so a transfer that queued
        # behind others sees the link bandwidth at its actual start time.
        self._duration = self._link.transfer_time(self._nbytes)
        self._send = self._copy_finish
        return self.env.timeout(self._duration)

    def _copy_finish(self, value: object) -> Event:
        link = self._link
        link.bytes_moved += self._nbytes
        link.busy_time += self._duration
        link.release()
        stream = self._stream
        if stream._tracer.enabled:
            stream._tracer.complete(
                "copy", cat="stream", track=stream.name,
                start=self._op_start, end=self.env.now, nbytes=self._nbytes,
            )
        on_done = self._on_done
        self._on_done = None
        self._link = None
        if on_done is not None:
            on_done()
        return self._finish_op()

    def _compute_done(self, value: object) -> Event:
        stream = self._stream
        if stream._tracer.enabled:
            stream._tracer.complete(
                "compute", cat="stream", track=stream.name,
                start=self._op_start, end=self.env.now,
            )
        on_done = self._on_done
        self._on_done = None
        if on_done is not None:
            on_done()
        return self._finish_op()

    def _waited(self, value: object) -> Event:
        return self._finish_op()

    def _finish_op(self) -> Event:
        stream = self._stream
        stream._depth -= 1
        stream.ops_executed += 1
        return self._next_op()


def synchronize_all(env: Environment, streams: list[CudaStream]) -> Event:
    """Device-wide synchronize: fires when every stream has drained.

    This is the blocking synchronization the *unoptimized* auto-scaling
    path uses between stages (cudaDeviceSynchronize semantics).
    """
    return env.all_of([stream.synchronize() for stream in streams])


# Bound last: ``loader`` imports this module for CudaEvent and CudaStream.
from . import loader as _loader  # noqa: E402
