"""Discrete-event simulation kernel.

This module implements a small, deterministic, generator-based
discrete-event simulator in the style of SimPy.  Every stateful component
of the reproduction (GPUs, PCIe links, CUDA streams, inference engines,
schedulers) runs as a :class:`Process` inside an :class:`Environment`.

Design notes
------------
* Simulated time is a float, in **seconds**.
* Events scheduled for the same time fire in scheduling order (a strictly
  increasing sequence number breaks ties), so simulations are fully
  deterministic given a seeded workload.
* Processes are plain Python generators that ``yield`` events.  When the
  event fires, the process resumes with the event's value; if the event
  failed, the exception is thrown into the generator.

Hot-path engineering (see DESIGN.md "Performance notes")
--------------------------------------------------------
* **One run loop, one dispatch.**  :meth:`Environment.run` is a single
  loop that pops the heap in ``(time, seq)`` order and fires each event
  the way the plain reference kernel in ``tests/reference_kernel.py``
  does: mark it processed, resume its waiter through
  :meth:`Process._resume`, run its callbacks.  The production loop adds
  only the lazy-cancel drop and step accounting.  Nothing bypasses the
  heap: every trigger, timeout, process init, relay, and interrupt is a
  heap entry with a sequence number assigned at scheduling time, so
  events at the same instant fire in scheduling order.  ``run(until=...)`` can be split and resumed without changing
  that order.  The one skip is :meth:`Environment.claim_inline`: a
  continuation may run work directly instead of scheduling it for
  ``now`` only when that event would be the very next pop.  See
  DESIGN.md for the ordering rules new event sources must follow.
* **Single-waiter fast path.**  The common case — exactly one process
  waiting on an event — stores the waiting process in the event's
  ``_waiter`` slot instead of materializing a callbacks-list entry.
  The callbacks list is still there for multi-waiter events, conditions,
  and external subscribers; the waiter always fires first because it is
  only installed when the callbacks list is empty (earliest attachment).
* **One process form.**  Every simulated lifecycle is a generator
  :class:`Process`; a multi-wait sub-operation (a model switch, a KV
  drain) runs in its caller's frame through ``yield from``, never as a
  nested process.  The hottest lifecycles (the instance loops, the
  stream lanes) keep their per-event waits in one flat frame, so a
  resume is one ``generator.send`` into that frame.  See DESIGN.md
  "Kernel fast paths" and the ordering rules every process obeys.
* Every kernel object carries ``__slots__``; there are no instance dicts
  on the event path.
* Nothing is recycled: every ``event``, ``timeout``, ``timeout_at`` and
  ``process`` call allocates a fresh object, so an event a component
  keeps a handle on keeps its value and state for as long as it is
  held.  An unobserved failure surfaces at :meth:`Environment.run` with
  its exception intact.
* Timeouts support *lazy cancellation*: :meth:`Timeout.cancel` (and
  :meth:`Process.interrupt` orphaning a timeout) marks the heap entry
  dead, and the run loop drops it at pop time instead of re-heapifying.
* ``yield`` of an already-processed event, and :class:`AllOf`/
  :class:`AnyOf` over already-triggered events, take allocation-light
  fast paths.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states; "processed" is the _FIRED marker below.
_PENDING = 0  # created, not yet triggered
_TRIGGERED = 1  # value set, scheduled to fire

# Processed marker, stored in the ``_waiter`` slot when an event is
# dispatched.  Folding "has been processed" into the slot the dispatcher
# must touch anyway saves a per-event state store on the hot path; the
# ``_state`` field stops at _TRIGGERED and public ``processed`` reads the
# sentinel instead.
_FIRED = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: *pending* (just created),
    *triggered* (a value or exception has been set and the event is
    queued), and *processed* (its callbacks have run).
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_state",
        "_defused",
        "_cancelled",
        "_waiter",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        # Failures are "defused" once some process observes them; an
        # unobserved failure surfaces at env.run() to avoid being dropped.
        self._defused = False
        # Lazy cancellation: dead heap entries are dropped at pop time.
        self._cancelled = False
        # Single-waiter fast path: the first process to wait on a
        # callback-free event parks here and is resumed by the run loop
        # without a callbacks-list entry.  Always fires before the list.
        self._waiter: Optional[Process] = None

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value (or exception) has been set."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._waiter is _FIRED

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._state < _TRIGGERED:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state >= _TRIGGERED:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        heappush(env._queue, (env.now, env._sequence, self))
        env._sequence += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Until some waiter observes (defuses) it, the failure surfaces at
        :meth:`Environment.run` with its traceback intact.
        """
        if self._state >= _TRIGGERED:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        heappush(env._queue, (env.now, env._sequence, self))
        env._sequence += 1
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Written so that NaN fails too: a NaN key breaks the heap order.
        if not (delay >= 0):
            raise SimulationError(f"invalid timeout delay: {delay}")
        Event.__init__(self, env)
        self._value = value
        self._state = _TRIGGERED
        heappush(env._queue, (env.now + delay, env._sequence, self))
        env._sequence += 1

    def cancel(self) -> bool:
        """Lazily cancel this timeout.

        The heap entry stays where it is; the run loop drops it at pop
        time without firing callbacks (and without counting a step).
        Returns True if the timeout was still pending, False if it had
        already been processed (in which case this is a no-op).
        """
        if self._waiter is _FIRED:
            return False
        # A cancelled entry reads as not-ok so the dispatcher's existing
        # success branch doubles as the cancellation check; the dropped
        # entry never throws (the _cancelled flag is tested first).
        self._ok = False
        self._cancelled = True
        return True


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The process's value is the generator's return value; if the generator
    raises, waiting processes observe the exception.
    """

    __slots__ = ("_generator", "_send", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() requires a generator, got {generator!r}"
            )
        Event.__init__(self, env)
        self._target: Optional[Event] = None
        self._generator = generator
        # Bound-method cache: one attribute load per resume instead of two.
        self._send = generator.send
        # The first turn comes from a private init event.
        init = Event(env)
        init._state = _TRIGGERED
        init._waiter = self
        heappush(env._queue, (env.now, env._sequence, init))
        env._sequence += 1

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._state < _TRIGGERED

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is rescheduled immediately; the event it was waiting
        on is left un-consumed (it no longer resumes this process).  An
        orphaned :class:`Timeout` — one no waiter remains attached to —
        is lazily cancelled so the run loop can drop it at pop time
        instead of firing it.
        """
        if self._state >= _TRIGGERED:
            raise SimulationError("cannot interrupt a terminated process")
        if self._target is None:
            raise SimulationError("cannot interrupt a process that is not waiting")
        env = self.env
        interrupt_event = env.event()
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event._state = _TRIGGERED
        # Detach from the old target so its firing does not resume us.
        target = self._target
        if target._waiter is self:
            target._waiter = None
        else:
            callbacks = target.callbacks
            if callbacks is not None and self._resume in callbacks:
                callbacks.remove(self._resume)
        # A timeout left with no waiter and no callbacks is an orphan.
        if (
            type(target) is Timeout
            and target._waiter is None
            and not target.callbacks
        ):
            target._ok = False
            target._cancelled = True
        self._target = None
        interrupt_event._waiter = self
        heappush(env._queue, (env.now, env._sequence, interrupt_event))
        env._sequence += 1

    # -- internal --------------------------------------------------------
    def _wait_instead(self, event: Event) -> None:
        """Park on ``event`` in place of the timeout this process waits on.

        The current target must be a :class:`Timeout` in whose waiter
        slot this process sits; it is detached and lazily cancelled, and
        ``event`` is attached exactly as if the last resume had yielded
        it.  A component that retires several waits with one timeout
        (``transfer.loader``'s load runs) uses this to hand the process
        the wait it would have had when something cuts the run short.
        """
        target = self._target
        target._waiter = None
        target.cancel()
        if event._waiter is None and not event.callbacks:
            event._waiter = self
        else:
            event.callbacks.append(self._resume)
        self._target = event

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._target = None
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        try:
            waiter_slot = next_event._waiter
        except AttributeError:
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}"
            ) from None
        if waiter_slot is None and not next_event.callbacks:
            next_event._waiter = self
            self._target = next_event
            return
        if waiter_slot is not _FIRED:
            # A bound method made per attach, not cached on the process:
            # a cached one would reference its own process, a cycle only
            # the cyclic collector frees.
            next_event.callbacks.append(self._resume)
            self._target = next_event
            return
        # Already processed: resume immediately with its value, via a
        # relay event so ordering against the queue is kept.
        resume = env.event()
        ok = next_event._ok
        resume._ok = ok
        resume._value = next_event._value
        if not ok:
            next_event._defused = True
            resume._defused = True
        resume._state = _TRIGGERED
        resume._waiter = self
        heappush(env._queue, (env.now, env._sequence, resume))
        env._sequence += 1
        self._target = resume


def _all_fired(events: list[Event], count: int) -> bool:
    """Evaluate for :class:`AllOf`: every sub-event has fired."""
    return count == len(events)


def _any_fired(events: list[Event], count: int) -> bool:
    """Evaluate for :class:`AnyOf`: at least one sub-event has fired."""
    return count >= 1


class Condition(Event):
    """An event that fires once ``evaluate`` holds over its sub-events."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ):
        Event.__init__(self, env)
        self._evaluate = evaluate
        self._events = events = list(events)
        self._count = 0
        for event in events:
            if event.env is not env:
                raise SimulationError("conditions cannot span environments")

        if not events:
            self.succeed(self._collect_values())
            return
        check = self._check
        for event in events:
            if event._waiter is _FIRED:
                # Fast path: the sub-event already fired; account for it
                # now instead of queueing anything.
                check(event)
            else:
                event.callbacks.append(check)

    def _collect_values(self) -> dict[Event, Any]:
        return {
            event: event._value
            for event in self._events
            if event._waiter is _FIRED and event._ok
        }

    def _check(self, event: Event) -> None:
        if self._state >= _TRIGGERED:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Fires when all sub-events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        Condition.__init__(self, env, _all_fired, events)


class AnyOf(Condition):
    """Fires when any sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        Condition.__init__(self, env, _any_fired, events)


class Environment:
    """The simulation environment: clock plus event queue."""

    __slots__ = (
        "now",
        "_queue",
        "_sequence",
        "_active_process",
        "steps_executed",
        "steps_inlined",
        "events_cancelled",
        "runs",
    )

    # Always 0 (nothing is recycled); simbench reads it.
    events_recycled = 0

    def __init__(self, initial_time: float = 0.0):
        # Current simulated time in seconds.  A plain slot, not a
        # property: every hot path reads it, and only the run loop
        # writes it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        # Plain-int telemetry sampled by the observability layer.
        self.steps_executed = 0
        self.steps_inlined = 0
        self.events_cancelled = 0
        # Every live run (``repro.sim.Run``), in formation order: a dict
        # used as an insertion-ordered set.
        self.runs: dict = {}

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (telemetry).

        Every schedule consumes one sequence number, so the count is
        derived instead of maintained on the hot path.
        """
        return self._sequence

    def settle_runs(self) -> None:
        """Land what every live run has finished by ``now``, in formation
        order; each run goes on (``Run.settle``).

        For a reader that must see every interval that has ended: an
        invariant sweep, or the result collection at the end of a run.
        """
        for run in self.runs:
            run.settle()

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float) -> Timeout:
        """A timeout that fires at the absolute time ``when``.

        ``timeout(when - now)`` fires at ``now + (when - now)``, which
        can round off ``when`` while ``now`` is under half of it; a tick
        replayed onto a grid must land on the grid exactly.
        """
        now = self.now
        if not (when >= now):  # NaN fails too
            raise SimulationError(f"timeout_at({when}) lies in the past (now={now})")
        timeout = Timeout.__new__(Timeout)
        Event.__init__(timeout, self)
        timeout._state = _TRIGGERED
        heappush(self._queue, (when, self._sequence, timeout))
        self._sequence += 1
        return timeout

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any event in ``events`` has fired."""
        return AnyOf(self, events)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def claim_inline(self) -> bool:
        """May the running continuation skip an event due at ``now``?

        True when nothing else is due at the current instant: the heap
        is empty or its head lies in the future.  An event the caller
        would schedule for ``now`` would then be the very next pop, so
        running its continuation directly fires the same work in the
        same ``(time, seq)`` order, minus one push and one pop.  Each
        True is counted in ``steps_inlined``: a run that inlines takes
        exactly that many fewer steps (and schedules that many fewer
        events) than one that never does.

        The event that woke the caller must have no callbacks left to
        run, since they would still fire before the skipped event's pop.
        So the answer is also False outside a process resume (a plain
        callback), for a process resumed from a callbacks list, and for
        the single-slot waiter of an event that has callbacks behind it.
        A ``run(until=event)`` that stops right after this step sees the
        continuation already run; the order of everything fired is
        unaffected.  The reference kernel in ``tests/reference_kernel.py``
        always answers False.
        """
        queue = self._queue
        if queue and queue[0][0] <= self.now:
            return False
        waiter = self._active_process
        if waiter is None:
            return False
        # The event that woke the caller, or None for a private init or
        # interrupt event.  Its callbacks are None while the run loop is
        # iterating them.
        woke = waiter._target
        if woke is not None:
            callbacks = woke.callbacks
            if callbacks is None or callbacks:
                return False
        self.steps_inlined += 1
        return True

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it fires, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not (stop_time >= self.now):  # NaN fails too
                raise SimulationError(
                    f"until ({stop_time}) lies in the past (now={self.now})"
                )

        # One heap-ordered loop: every event, including those scheduled
        # for the current instant while the loop runs, is popped from
        # the heap in (time, seq) order, so a run split by ``until`` and
        # resumed fires exactly what one uninterrupted run would.  Each
        # pop fires as the reference kernel's ``fire()`` does, plus the
        # lazy-cancel drop.
        #
        # Step accounting is derived, not maintained: every heap push
        # consumes one sequence number, so pops over this run window are
        #   len_before + pushes - len_after
        # and fired steps are pops minus lazily-dropped cancellations.
        queue = self._queue
        pop = heappop
        cancelled = 0
        len_before = len(queue)
        seq_before = self._sequence
        try:
            while queue:
                if stop_event is not None and stop_event._waiter is _FIRED:
                    break
                if queue[0][0] > stop_time:
                    self.now = stop_time
                    return None
                when, _, event = pop(queue)
                self.now = when
                ok = event._ok
                if not ok and event._cancelled:
                    # Lazy cancellation: dropped, never fired.  A parked
                    # waiter stays parked.
                    cancelled += 1
                    event._waiter = _FIRED
                    continue
                # The processed marker is stored before anything runs, so a
                # waiter that yields or conditions on the event it woke from
                # sees it processed and relays.  The waiter fires first: it
                # is only installed while the callbacks list is empty, so
                # this is attachment order.
                waiter = event._waiter
                event._waiter = _FIRED
                if waiter is not None:
                    waiter._resume(event)
                cbs = event.callbacks
                if cbs:
                    event.callbacks = None
                    for callback in cbs:
                        callback(event)
                    cbs.clear()
                    event.callbacks = cbs
                if not ok and not event._defused:
                    raise event._value
        finally:
            self._active_process = None
            pops = len_before + (self._sequence - seq_before) - len(queue)
            self.steps_executed += pops - cancelled
            self.events_cancelled += cancelled

        if stop_event is not None:
            if stop_event._state < _TRIGGERED:
                raise SimulationError(
                    "run() ran out of events before `until` event fired"
                )
            if stop_event._cancelled:
                # A cancelled stop event never fires; historically this
                # drains to exhaustion and reports no value.
                return None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != float("inf"):
            self.now = stop_time
        return None
