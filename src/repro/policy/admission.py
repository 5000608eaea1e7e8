"""Admission policies: accept or shed a request at the proxy tier.

The serving core consults the bundle's admission policy once per
arrival, *before* dispatch.  A rejection is final: the request is
recorded as ``REJECTED`` (it still counts against SLO attainment and
the ``finished + failed + rejected == submitted`` identity) and a
``policy.admission`` event explains the decision on the timeline.

* :class:`AlwaysAdmit` — the default everywhere: admission control is
  the dispatch path's problem (a request is only turned away when every
  instance of a pool is dead), reproducing pre-policy-layer behaviour.
* :class:`PlacedModelsAdmission` — MuxServe's implicit rule made
  explicit: a model the static placement optimizer could not fit is
  never served.
* :class:`SloAwareAdmission` — **new**: sheds load once the estimated
  queueing delay ahead of a new request exceeds a multiple of the TTFT
  SLO.  A request that would blow its deadline anyway is cheaper to
  reject at the door than to drag through prefill — and under failures
  this sheds load *before* pools empty-reject.
"""

from __future__ import annotations

from typing import Any, Optional

from .base import policy_event

__all__ = ["AlwaysAdmit", "PlacedModelsAdmission", "SloAwareAdmission"]


class AlwaysAdmit:
    """Admit everything; rejection only ever happens inside dispatch."""

    def decide(self, system: Any, request: Any) -> Optional[str]:
        return None


class PlacedModelsAdmission:
    """Reject models the placement phase left without any capacity."""

    def decide(self, system: Any, request: Any) -> Optional[str]:
        if request.model in getattr(system, "unplaced", ()):
            # No capacity was ever provisioned for this model; the
            # request counts fully against SLO attainment.
            return "model_not_placed"
        return None


class SloAwareAdmission:
    """Shed load when the admission-time queue estimate dooms the TTFT.

    ``headroom`` scales the TTFT budget: with the default 1.0 a request
    is shed as soon as the system's own pressure estimate (seconds of
    queued work ahead of a fresh arrival, via
    ``system.admission_pressure()``) says its first token would miss the
    deadline even if everything downstream were instant.  Emits a
    ``policy.admission`` decision event per shed so timelines show why
    the proxy turned traffic away while GPUs were still up.
    """

    def __init__(self, headroom: float = 1.0):
        if headroom <= 0:
            raise ValueError("headroom must be positive")
        self.headroom = headroom

    def decide(self, system: Any, request: Any) -> Optional[str]:
        pressure_fn = getattr(system, "admission_pressure", None)
        if pressure_fn is None:
            return None
        pressure = pressure_fn()
        budget = system.slo.ttft * self.headroom
        if pressure <= budget:
            return None
        policy_event(
            system.obs.tracer, "admission",
            decision="shed", request_id=request.request_id,
            model=request.model, pressure=round(pressure, 6),
            budget=round(budget, 6),
        )
        return "queue_pressure"
