"""Proxy layer: request dispatch and status synchronization (Figure 5).

The production system fronts the instance pool with a proxy/load-balancer
that synchronizes request metadata through a shared in-memory store
(Redis).  Here the :class:`StatusRegistry` plays that role — a single
source of truth for request state that instances and the server update —
and :class:`ProxyLayer` admits each arrival into the serving system.

Every run, single system or fleet, goes through :func:`replay`: a
:class:`Pump` submits a request stream at its arrival times, and a
:class:`DrainWatchdog` ends the run once the pump is done and the
caller's ``settled`` predicate holds, or the drain deadline passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..engine.request import Phase, Request
from ..sim import ContTask, Environment, Event

__all__ = ["StatusRegistry", "ProxyLayer", "Pump", "DrainWatchdog", "replay"]


@dataclass
class StatusRegistry:
    """Shared request-status store (the paper's Redis role)."""

    statuses: dict[int, str] = field(default_factory=dict)
    submitted: int = 0
    finished: int = 0
    failed: int = 0
    rejected: int = 0

    def update(self, request: Request) -> None:
        """Record a request's current phase."""
        if request.request_id not in self.statuses:
            self.submitted += 1
        previous = self.statuses.get(request.request_id)
        self.statuses[request.request_id] = request.phase.value
        if request.phase is Phase.FINISHED and previous != Phase.FINISHED.value:
            self.finished += 1
        elif request.phase is Phase.FAILED and previous != Phase.FAILED.value:
            self.failed += 1
        elif request.phase is Phase.REJECTED and previous != Phase.REJECTED.value:
            self.rejected += 1

    def forget(self, request_id: int) -> None:
        """Purge a terminal request's status entry; counters keep its tally."""
        self.statuses.pop(request_id, None)

    @property
    def in_flight(self) -> int:
        return self.submitted - self.finished - self.failed - self.rejected


class ProxyLayer:
    """Admits arriving requests and tracks the ones still in flight.

    ``live`` maps every in-flight request id to its :class:`Request`;
    the serving system drops each one at its terminal disposition, so
    the map — and everything that walks it — scales with concurrency,
    not trace length.  With ``retain`` on (the default) every admitted
    request is also kept in ``requests`` for end-of-run analysis.
    """

    def __init__(
        self,
        env: Environment,
        dispatch: Callable[[Request], None],
        registry: Optional[StatusRegistry] = None,
        retain: bool = True,
    ):
        self.env = env
        self.dispatch = dispatch
        self.registry = registry if registry is not None else StatusRegistry()
        self.retain = retain
        self.requests: list[Request] = []
        #: In-flight requests (id -> request).
        self.live: dict[int, Request] = {}
        #: Total requests ever admitted (== len(requests) when retaining).
        self.submitted = 0

    def admit(self, request: Request) -> None:
        """Record one arriving request and hand it to the dispatcher."""
        if self.retain:
            self.requests.append(request)
        self.live[request.request_id] = request
        self.submitted += 1
        self.registry.update(request)
        self.dispatch(request)

    def drop(self, request: Request) -> None:
        """Forget a terminally disposed request."""
        self.live.pop(request.request_id, None)


class Pump(ContTask):
    """Calls ``submit(trace_request, spec)`` at each arrival of ``stream``.

    The stream is pulled lazily (bounded lookahead); the task succeeds —
    ``pump.triggered`` turns true — right after the last submission.
    ``submit`` runs after the arrival wait, so a fleet resolves the
    owning shard at submission time (a model may migrate meanwhile).
    """

    __slots__ = ("_iter", "_pending", "_submit", "_spec_of")

    def __init__(self, env: Environment, stream, submit: Callable) -> None:
        self._iter = iter(stream)
        self._pending = None
        self._submit = submit
        self._spec_of = stream.spec_of
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        return self._loop()

    def _loop(self) -> Event:
        env = self.env
        for trace_request in self._iter:
            delay = trace_request.arrival - env.now
            if delay > 0:
                self._pending = trace_request
                self._send = self._arrived
                return env.timeout(delay)
            self._submit(trace_request, self._spec_of(trace_request.model))
        raise StopIteration(None)

    def _arrived(self, value: object) -> Event:
        trace_request, self._pending = self._pending, None
        self._submit(trace_request, self._spec_of(trace_request.model))
        return self._loop()


class DrainWatchdog(ContTask):
    """Checks ``done()`` once a second; stops when it holds or at ``deadline``.

    ``drained`` records which: True when ``done()`` held, False when
    the deadline cut the run short.
    """

    __slots__ = ("_done", "_deadline", "drained")

    def __init__(self, env: Environment, done: Callable[[], bool], deadline: float):
        self._done = done
        self._deadline = deadline
        self.drained = False
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        self._send = self._tick
        return self._tick(value)

    def _tick(self, value: object) -> Event:
        if self._done():
            self.drained = True
            raise StopIteration(None)
        if self.env.now >= self._deadline:
            raise StopIteration(None)
        return self.env.timeout(1.0)


def replay(
    env: Environment,
    stream,
    submit: Callable,
    settled: Callable[[], bool],
    deadline: float,
    checkers: Iterable,
) -> bool:
    """Run ``stream`` through ``submit`` until it drains or ``deadline``.

    The run drains once every arrival is submitted and ``settled()``
    holds.  Afterwards each attached invariant checker (``None`` entries
    are skipped) runs a final check and raises on any recorded
    violation.  Returns True when the run drained, False when the
    deadline cut it short.
    """
    pump = Pump(env, stream, submit)
    watchdog = DrainWatchdog(env, lambda: pump.triggered and settled(), deadline)
    env.run(until=watchdog)
    for checker in checkers:
        if checker is not None:
            checker.check_now()
            checker.assert_clean()
    return watchdog.drained
