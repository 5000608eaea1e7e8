"""The fault injector: turns a :class:`FaultPlan` into simulation events.

One :class:`FaultInjector` attaches to a serving system and spawns one
driver process per fault record.  Every disruption is delivered through
the same primitives ordinary components use — timeouts, stream ops,
attribute flips scheduled on the event queue — so a faulted run stays
byte-reproducible under a fixed seed and fault plan.  When the system
has an invariant checker, each delivered fault is followed by one of
its full sweeps (``check_now``).

The injector never reaches into component internals beyond the
designated chaos surfaces:

* ``QuickLoader.fetch_disruptor`` — armed fetch failures (§ remote
  checkpoint registry);
* ``CudaStream.compute`` on the KV streams — transfer stalls;
* ``Link.throttle`` / ``Link.restore`` — degraded host links;
* ``ServingSystem.fail_instance`` — GPU/instance loss;
* ``AegaeonEngine.perf_factor`` — compute latency spikes.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..obs import NULL_OBS, Observability
from .plan import (
    Fault,
    FaultPlan,
    FetchFailure,
    InstanceFailure,
    LatencySpike,
    LinkThrottle,
    TransferStall,
)

__all__ = ["FaultInjector", "ArmedFetchFailures"]


class ArmedFetchFailures:
    """Per-loader queue of pending fetch failures.

    Installed as ``QuickLoader.fetch_disruptor``; the loader consults it
    once per remote fetch attempt.  Returns the seconds wasted by a
    failed attempt, or ``None`` when the fetch should succeed.
    """

    __slots__ = ("pending", "tripped")

    def __init__(self) -> None:
        self.pending: list[float] = []  # wasted-seconds per armed failure
        self.tripped = 0

    def arm(self, count: int, wasted: float) -> None:
        """Queue ``count`` failures, each wasting ``wasted`` seconds."""
        self.pending.extend([wasted] * count)

    def __call__(self, model: str) -> Optional[float]:
        if self.pending:
            self.tripped += 1
            return self.pending.pop(0)
        return None


class FaultInjector:
    """Delivers a :class:`FaultPlan` into a live serving system."""

    def __init__(
        self,
        system,
        plan: FaultPlan,
        obs: Observability = NULL_OBS,
    ):
        self.system = system
        self.env = system.env
        self.plan = plan
        self.delivered: list[Fault] = []
        self.skipped: list[tuple[Fault, str]] = []
        scope = obs.scoped("chaos")
        self._delivered_counter = scope.counter("faults_delivered")
        self._skipped_counter = scope.counter("faults_skipped")
        for fault in plan.faults:
            self.env.process(self._drive(fault))

    # -- resolution ---------------------------------------------------------
    def _engines(self, pattern: str) -> list:
        engines = self.system.engines()
        if pattern == "*":
            return list(engines)
        return [engine for engine in engines if engine.name == pattern]

    # -- delivery -----------------------------------------------------------
    def _drive(self, fault: Fault) -> Generator:
        """Process: wait until the fault's time, then apply it."""
        delay = fault.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        if isinstance(fault, FetchFailure):
            applied = self._apply_fetch(fault)
        elif isinstance(fault, TransferStall):
            applied = self._apply_stall(fault)
        elif isinstance(fault, LinkThrottle):
            applied = yield from self._apply_throttle(fault)
        elif isinstance(fault, InstanceFailure):
            applied = self._apply_kill(fault)
        elif isinstance(fault, LatencySpike):
            applied = yield from self._apply_spike(fault)
        else:  # pragma: no cover - plan types are closed
            applied = False
        if applied:
            self.delivered.append(fault)
            self._delivered_counter.inc()
            checker = self.system.invariant_checker
            if checker is not None:
                checker.check_now()
        else:
            self._skipped_counter.inc()

    def _skip(self, fault: Fault, reason: str) -> bool:
        self.skipped.append((fault, reason))
        return False

    def _apply_fetch(self, fault: FetchFailure) -> bool:
        engines = self._engines(fault.engine)
        if not engines:
            return self._skip(fault, f"no engine matches {fault.engine!r}")
        for engine in engines:
            loader = engine.quick_loader
            if loader.fetch_disruptor is None:
                loader.fetch_disruptor = ArmedFetchFailures()
            loader.fetch_disruptor.arm(fault.count, fault.wasted)
        return True

    def _apply_stall(self, fault: TransferStall) -> bool:
        engines = self._engines(fault.engine)
        if not engines:
            return self._skip(fault, f"no engine matches {fault.engine!r}")
        for engine in engines:
            stream = engine.kv.kv_in if fault.direction == "in" else engine.kv.kv_out
            stream.compute(fault.duration)
        return True

    def _apply_throttle(self, fault: LinkThrottle) -> Generator:
        engines = self._engines(fault.engine)
        if not engines:
            return self._skip(fault, f"no engine matches {fault.engine!r}")
        links = []
        seen: set[int] = set()
        for engine in engines:
            for link in (engine.link.h2d, engine.link.d2h):
                wanted = (
                    fault.direction == "both"
                    or link is engine.link.h2d
                    and fault.direction == "h2d"
                    or link is engine.link.d2h
                    and fault.direction == "d2h"
                )
                # TP groups share a lead link; throttle each link once.
                if wanted and id(link) not in seen:
                    seen.add(id(link))
                    links.append(link)
        for link in links:
            link.throttle(fault.factor)
        yield self.env.timeout(fault.duration)
        for link in links:
            link.restore(fault.factor)
        return True

    def _apply_kill(self, fault: InstanceFailure) -> bool:
        fail = getattr(self.system, "fail_instance", None)
        if fail is None:
            return self._skip(fault, "system does not support instance failure")
        try:
            fail(fault.instance)
        except KeyError:
            return self._skip(fault, f"no instance named {fault.instance!r}")
        return True

    def _apply_spike(self, fault: LatencySpike) -> Generator:
        engines = self._engines(fault.engine)
        if not engines:
            return self._skip(fault, f"no engine matches {fault.engine!r}")
        for engine in engines:
            engine.perf_factor *= fault.factor
        yield self.env.timeout(fault.duration)
        for engine in engines:
            engine.perf_factor /= fault.factor
            # Overlapping spikes compose multiplicatively; snap residual
            # float error so a quiet engine returns to exactly 1.0.
            if abs(engine.perf_factor - 1.0) < 1e-9:
                engine.perf_factor = 1.0
        return True
