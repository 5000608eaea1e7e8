"""Proxy layer: request dispatch and status synchronization (Figure 5).

The production system fronts the instance pool with a proxy/load-balancer
that synchronizes request metadata through a shared in-memory store
(Redis).  Here the :class:`StatusRegistry` plays that role with four
counters — requests submitted, finished, failed and rejected — and
:class:`ProxyLayer` admits each arrival into the serving system.

Every run, single system or fleet, goes through :func:`replay`: a
:class:`Pump` submits a request stream at its arrival times, and a
:class:`DrainWatchdog` ends the run once the pump is done and the
caller's ``settled`` predicate holds, or the drain deadline passes.
Both are :class:`~repro.sim.Process` subclasses over a generator, so
``pump.triggered`` says the stream is exhausted and the watchdog is the
event ``env.run(until=...)`` stops at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..engine.request import Request
from ..sim import Environment, Process

__all__ = ["StatusRegistry", "ProxyLayer", "Pump", "DrainWatchdog", "replay"]


@dataclass
class StatusRegistry:
    """Shared request-status counters (the paper's Redis role).

    The proxy counts ``submitted`` at admission and the serving system
    one terminal counter at each disposal; nothing keeps a per-request
    entry.
    """

    submitted: int = 0
    finished: int = 0
    failed: int = 0
    rejected: int = 0

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
    ):
        self.env = env
        self.dispatch = dispatch
        self.registry = registry if registry is not None else StatusRegistry()
        #: Keep every admitted request in ``requests``; a serving
        #: system's ``configure_streaming`` turns it off.
        self.retain = True
        self.requests: list[Request] = []
        #: In-flight requests (id -> request).
        self.live: dict[int, Request] = {}

    @property
    def submitted(self) -> int:
        """Total requests ever admitted (== len(requests) when retaining):
        the registry's count."""
        return self.registry.submitted

    def admit(self, request: Request) -> None:
        """Record one arriving request and hand it to the dispatcher."""
        if self.retain:
            self.requests.append(request)
        self.live[request.request_id] = request
        self.registry.submitted += 1
        self.dispatch(request)

    def drop(self, request: Request) -> None:
        """Forget a terminally disposed request."""
        self.live.pop(request.request_id, None)


class Pump(Process):
    """Calls ``submit(trace_request, spec)`` at each arrival of ``stream``.

    The stream is pulled lazily (bounded lookahead); the process
    succeeds — ``pump.triggered`` turns true — right after the last
    submission.  ``submit`` runs after the arrival wait, so a fleet
    resolves the owning shard at submission time (a model may migrate
    meanwhile).
    """

    __slots__ = ()

    def __init__(self, env: Environment, stream, submit: Callable) -> None:
        Process.__init__(self, env, _pump(env, iter(stream), stream.spec_of, submit))


def _pump(env: Environment, arrivals, spec_of: Callable, submit: Callable):
    for trace_request in arrivals:
        delay = trace_request.arrival - env.now
        if delay > 0:
            yield env.timeout(delay)
        submit(trace_request, spec_of(trace_request.model))


class DrainWatchdog(Process):
    """Checks ``done()`` once a second; stops when it holds or at ``deadline``.

    ``drained`` records which: True when ``done()`` held, False when
    the deadline cut the run short.
    """

    __slots__ = ("drained",)

    def __init__(self, env: Environment, done: Callable[[], bool], deadline: float):
        self.drained = False
        Process.__init__(self, env, self._watch(done, deadline))

    def _watch(self, done: Callable[[], bool], deadline: float):
        env = self.env
        while not done():
            if env.now >= deadline:
                return
            yield env.timeout(1.0)
        self.drained = True


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
    holds.  Each attached invariant checker (``None`` entries are
    skipped) arms its per-transition checks before the clock starts,
    and afterwards runs a full sweep and raises on any recorded
    violation.  Returns True when the run drained, False when the
    deadline cut it short.
    """
    checkers = [checker for checker in checkers if checker is not None]
    for checker in checkers:
        checker.arm()
    pump = Pump(env, stream, submit)
    watchdog = DrainWatchdog(env, lambda: pump.triggered and settled(), deadline)
    env.run(until=watchdog)
    for checker in checkers:
        checker.check_now()
        checker.assert_clean()
    return watchdog.drained
