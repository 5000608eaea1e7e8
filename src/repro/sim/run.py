"""Runs: a precomputed schedule of back-to-back intervals, one timeout.

A component whose waits nobody observes (a weight load's chunk stalls
and copies, a decode turn's chunks) need not pay one kernel event per
wait.  It lays the intervals out in advance with the float arithmetic
the wait-by-wait chain would use, arms one timeout at the last end, and
lands each interval's effects later, in order: when the timeout fires,
or earlier, when something that could observe a boundary asks.
"""

from __future__ import annotations

from typing import Optional

from .core import Environment, Event

__all__ = ["Run"]


class Run:
    """A schedule of back-to-back intervals retired with one timeout.

    Interval ``i`` spans ``[ends[i - 1], ends[i])``, the first starting
    at :attr:`start`, the instant the run forms.  The run arms one
    ``env.timeout_at(ends[-1])``; its owner waits on :attr:`timeout` and
    calls :meth:`finish` when it fires.  Intervals land in order, each
    exactly once, through the subclass's :meth:`land` hook, a stretch at
    a time; ``landed`` counts them.  The cursor moves before the hook
    runs, so a hook that reaches back into its own run lands nothing
    twice.

    * :meth:`finish` lands every interval left.
    * :meth:`settle` lands every interval that has ended by ``now`` and
      leaves the run going: for a reader that must see what has ended.
    * :meth:`split` ends the run early: it lands every interval that
      ended before ``now``, then passes the interval in flight to the
      :meth:`hand` hook, which returns the event the waiting process
      waits on instead (its wait moves there, and the run's timeout is
      cancelled), or None to leave the wait on the run's own timeout.

    Tie rule at ``now``: :meth:`split` treats an observer at exactly an
    interval's end as coming before that end, so the interval is still
    in flight and is the one handed over; the run ends there, and the
    owner resumes at ``now``, after the observer.  That is what the
    wait-by-wait chain does when the observer's event was scheduled
    before the interval began.  A run whose observers come after the
    end instead (a claim on a load's link) calls :meth:`settle` first,
    which lands an interval ending at ``now``.
    """

    __slots__ = ("env", "start", "ends", "landed", "timeout")

    def __init__(self, env: Environment, ends: list):
        self.env = env
        self.start = env.now
        self.ends = ends
        self.landed = 0
        self.timeout = env.timeout_at(ends[-1])

    # -- owner hooks -----------------------------------------------------------
    def land(self, first: int, stop: int) -> None:
        """Apply the effects of intervals ``first`` to ``stop - 1``, in
        order; they have ended."""
        raise NotImplementedError

    def hand(self, index: int) -> Optional[Event]:
        """A split leaves interval ``index`` in flight: the event the
        owner waits on instead, or None to keep the run's timeout."""
        raise NotImplementedError

    # -- retiring ----------------------------------------------------------------
    def finish(self) -> None:
        """Land every interval left; the owner calls this when the
        timeout it waits on fires."""
        self.timeout = None
        first = self.landed
        stop = self.landed = len(self.ends)
        if first < stop:
            self.land(first, stop)

    def settle(self) -> None:
        """Land every interval that has ended by ``now``; the run goes on."""
        ends = self.ends
        now = self.env.now
        first = stop = self.landed
        while stop < len(ends) and ends[stop] <= now:
            stop += 1
        if first < stop:
            self.landed = stop
            self.land(first, stop)

    def split(self) -> None:
        """End the run at the first interval end at or after ``now``;
        see the class docstring."""
        ends = self.ends
        now = self.env.now
        first = index = self.landed
        while index < len(ends) and ends[index] < now:
            index += 1
        if first < index:
            self.landed = index
            self.land(first, index)
        if index == len(ends):
            return
        timeout = self.timeout
        event = self.hand(index)
        if event is None:
            return
        self.timeout = None
        waiter = timeout._waiter
        if waiter is not None:
            waiter._wait_instead(event)
        else:
            # An interrupt already detached (and cancelled) the wait.
            timeout.cancel()
