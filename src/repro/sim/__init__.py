"""Deterministic discrete-event simulation kernel.

The kernel is the substrate on which every simulated hardware and software
component of the Aegaeon reproduction runs.  See :mod:`repro.sim.core` for
the event loop, processes and conditions, and :mod:`repro.sim.run`
for runs of intervals retired with one timeout.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .run import Run

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Run",
    "SimulationError",
    "Timeout",
]
