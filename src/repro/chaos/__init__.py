"""Deterministic chaos engineering for the Aegaeon reproduction.

``repro.chaos`` turns degraded-mode behaviour into a first-class,
testable surface.  A :class:`FaultPlan` declares *what* goes wrong and
*when*; a :class:`FaultInjector` delivers each fault through ordinary
simulation events so faulted runs stay byte-reproducible; an
:class:`InvariantChecker` rides along and verifies, at every operation
that could break them, that the system preserves the paper's scheduling
semantics while the faults land.

Typical use::

    from repro.chaos import FaultPlan, InstanceFailure, TransferStall

    plan = FaultPlan.of(
        TransferStall(at=4.0, duration=1.0),
        InstanceFailure(at=8.0, instance="decode1"),
    )
    system = build_system(
        SystemSpec(config=config, faults=plan, invariants=True), env
    )
"""

from .injector import ArmedFetchFailures, FaultInjector
from .invariants import InvariantChecker, InvariantViolation, Violation
from .plan import (
    Fault,
    FaultPlan,
    FetchFailure,
    InstanceFailure,
    LatencySpike,
    LinkThrottle,
    TransferStall,
)

__all__ = [
    "ArmedFetchFailures",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FetchFailure",
    "InstanceFailure",
    "InvariantChecker",
    "InvariantViolation",
    "LatencySpike",
    "LinkThrottle",
    "TransferStall",
    "Violation",
]
