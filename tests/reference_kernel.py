"""Plain reference kernel: the oracle for ``repro.sim.core``'s run loop.

:class:`ReferenceEnvironment` keeps the production events, factories and
scheduling, and replaces only the run loop with the plainest one that
honours the same contract: pop the heap in ``(time, seq)`` order and
:func:`fire` each event generically.  A waiting process resumes through
``Process._resume``, the one resume the production loop calls too.
What the production loop adds around the same firing is absent here:
:meth:`~ReferenceEnvironment.claim_inline` always refuses, so every
continuation fires from its own event, and step accounting is one
counter per pop instead of derived from sequence numbers.  A scenario
that gives the same log and clock on both kernels, with step counts
that differ by exactly the production kernel's ``steps_inlined``, is
therefore independent of the production loop's inlining.

The single-step API (``step``/``peek``) lives here because only tests
use it.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Optional

from repro.sim.core import _FIRED, _TRIGGERED, Environment, Event, SimulationError

__all__ = ["ReferenceEnvironment", "fire"]


def fire(event: Event) -> None:
    """Mark ``event`` processed, resume its waiter, then run its callbacks.

    The ``_waiter`` process resumes first: it is only ever installed when
    the callbacks list is empty, so waiter-then-list is attachment order.
    """
    waiter = event._waiter
    event._waiter = _FIRED
    if waiter is not None:
        waiter._resume(event)
    callbacks = event.callbacks
    if callbacks:
        # Detach while running so re-entrant attachment attempts fail
        # loudly instead of mutating the list under iteration.
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        callbacks.clear()
        event.callbacks = callbacks


class ReferenceEnvironment(Environment):
    """An :class:`Environment` whose run loop is ``step()`` in a loop."""

    def claim_inline(self) -> bool:
        """Never inline: every continuation fires from its own event."""
        return False

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event (cancelled entries are dropped)."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        self.now, _, event = heappop(self._queue)
        if event._cancelled:
            event._waiter = _FIRED
            self.events_cancelled += 1
            return
        self.steps_executed += 1
        fire(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Same contract as :meth:`Environment.run`."""
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
        while self._queue:
            if stop_event is not None and stop_event._waiter is _FIRED:
                break
            if self.peek() > stop_time:
                self.now = stop_time
                return None
            self.step()
        if stop_event is not None:
            if stop_event._state < _TRIGGERED:
                raise SimulationError(
                    "run() ran out of events before `until` event fired"
                )
            if stop_event._cancelled:
                return None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != float("inf"):
            self.now = stop_time
        return None
