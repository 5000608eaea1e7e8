"""The five decision points of the serving control plane, as protocols.

Aegaeon's contribution is a *set of decisions* — token-level preemptive
scheduling, grouped prefill, weighted decode rounds (§4, Algorithms
1-2), scale-up/down triggers — and the baselines differ from it exactly
in which decisions they make, not in the machinery that executes them.
This module names those decision points as narrow, swappable protocols:

* :class:`AdmissionPolicy`  — accept/shed a request at the proxy;
* :class:`DispatchPolicy`   — request → instance / batch grouping;
* :class:`DecodeTurnPolicy` — round ordering and per-turn quotas
  (Eqs. 2-3 live behind this seam);
* :class:`ScalingPolicy`    — when an engine preempts/switches models,
  and how a round's switch cost is charged;
* :class:`PlacementPolicy`  — model → GPU and GPU → pool assignment.

A :class:`PolicyBundle` packages one choice per decision point plus the
:class:`~repro.policy.tunables.Tunables` they share; the named bundles
in :mod:`repro.policy.registry` make Aegaeon, ServerlessLLM(+), MuxServe
and the unified foils *configurations of one serving core* rather than
divergent control paths.

Every protocol is duck-typed against the pool objects it steers
(schedulers, instances, engines, serving systems) so the package imports
nothing from :mod:`repro.core` at runtime — policies stay importable and
testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Protocol, Sequence, runtime_checkable

from .tunables import DEFAULT_TUNABLES, Tunables

__all__ = [
    "AdmissionPolicy",
    "DispatchPolicy",
    "DecodeTurnPolicy",
    "FleetControlPolicy",
    "ScalingPolicy",
    "PlacementPolicy",
    "PolicyBundle",
    "policy_event",
]


def policy_event(tracer, kind: str, **fields) -> None:
    """Emit one ``policy.*`` decision instant through an obs tracer.

    Timelines exported to Chrome ``trace_event`` then show *why* a
    rejection, scale, or placement happened next to the spans it caused.
    No-ops (and allocates nothing) when tracing is off.
    """
    if tracer is not None and tracer.enabled:
        tracer.instant(f"policy.{kind}", cat="policy", track="policy", **fields)


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides, per arriving request, whether the system takes it at all."""

    def decide(self, system: Any, request: Any) -> Optional[str]:
        """Return ``None`` to admit, or a short rejection reason.

        A non-``None`` reason makes the serving core record the request
        as :attr:`~repro.engine.request.Phase.REJECTED` without ever
        dispatching it.
        """


@runtime_checkable
class DispatchPolicy(Protocol):
    """Routes an admitted request into the pool's queue structure.

    Systems with disaggregated pools call :meth:`place_prefill` /
    :meth:`place_decode` (through their phase schedulers); single-pool
    systems call :meth:`place`.  A policy implements the methods its
    system uses.
    """

    def place_prefill(self, scheduler: Any, request: Any) -> tuple[Any, Any, str]:
        """Pick ``(instance, group_or_None, decision)`` for a prefill job."""

    def place_decode(self, scheduler: Any, request: Any) -> tuple[Any, Any, str]:
        """Pick ``(instance, batch_or_None, decision)`` for a prefilled request."""

    def place(self, system: Any, request: Any) -> Any:
        """Pick the instance a single-pool system enqueues ``request`` on."""


@runtime_checkable
class DecodeTurnPolicy(Protocol):
    """Orders a decode round and sizes its weighted turns (Eqs. 2-3)."""

    def order(self, work_list: list) -> list:
        """Return the round's batch execution order (may be ``work_list``)."""

    def quotas(
        self, batches: Sequence, step_times: Sequence[float],
        switch_cost: float, slo: Any,
    ) -> list[float]:
        """Per-batch time quotas for one round."""

    def attainment(
        self, step_times: Sequence[float], switch_cost: float, slo: Any
    ) -> float:
        """The policy's own SLO-attainment estimate for a round."""


@runtime_checkable
class ScalingPolicy(Protocol):
    """Decides when an engine preempts its model and what a switch costs."""

    def should_switch(self, engine: Any, spec: Any) -> bool:
        """True when ``engine`` must scale to ``spec`` before executing."""

    def round_switch_cost(self, engine: Any, batches: Sequence) -> float:
        """``c``: the auto-scaling overhead charged to one decode round."""

    def order_queue(self, waiting: list, engine: Any) -> None:
        """Order a request-level system's waiting queue in place."""


@runtime_checkable
class PlacementPolicy(Protocol):
    """Assigns models to GPUs and GPUs to pool partitions."""

    def plan(
        self, models: Sequence, slots: Sequence
    ) -> tuple[list[list], list]:
        """Statically place ``models`` onto GPU ``slots`` (specs).

        Returns ``(per-slot model lists, unplaced models)``.
        """

    def partition(
        self, gpus: Sequence, tp: int, prefill_instances: int, decode_instances: int
    ) -> tuple[list[list], list[list]]:
        """Split a GPU list into prefill / decode TP groups."""


@runtime_checkable
class FleetControlPolicy(Protocol):
    """The fleet controller's decision surface (one level above shards).

    Consulted by :class:`repro.fleet.controller.FleetController` on
    every control tick (and on every admission rejection, for
    spillover) with a :class:`~repro.fleet.controller.FleetView` — the
    tick's per-shard telemetry plus the per-model EWMA/slope arrival
    forecasts.  Implementations live in
    :mod:`repro.policy.fleet_control` and are registered by name
    (``"static"``, ``"forecast"``) the same way serving bundles are.
    """

    def plan_migrations(self, view: Any) -> list[tuple[str, int, int]]:
        """Catalog moves to execute this tick: ``(model, src, dst)``.

        The controller re-pins each model on the partitioner (future
        arrivals route to ``dst``; in-flight requests drain on ``src``).
        """

    def spill_target(self, view: Any, shard: int, request: Any) -> Optional[int]:
        """The shard a rejected ``request`` should retry on, or ``None``
        to let the rejection stand.  Called only while the request has
        spill hops left; returning ``shard`` itself is treated as
        ``None``."""

    def scaling_hint(self, view: Any, shard: int) -> Optional[float]:
        """A per-shard load hint (forecast load / fleet mean) fed into
        the shard's :class:`ScalingPolicy` seam via
        ``system.apply_scaling_hint``; ``None`` leaves the shard's hint
        untouched."""


@dataclass(frozen=True)
class PolicyBundle:
    """One choice per decision point, plus the tunables they share."""

    name: str
    #: The serving topology this bundle steers by default — a
    #: :func:`repro.core.build_system` name.
    system: str
    admission: AdmissionPolicy
    dispatch: DispatchPolicy
    decode_turn: DecodeTurnPolicy
    scaling: ScalingPolicy
    placement: PlacementPolicy
    tunables: Tunables = DEFAULT_TUNABLES
    description: str = ""

    def with_tunables(self, tunables: Tunables) -> "PolicyBundle":
        """This bundle with a different tunables set: the one way a run
        changes a tuning constant."""
        from .decode_turn import WeightedRoundPolicy

        if tunables == self.tunables:
            return self
        decode_turn = self.decode_turn
        if type(decode_turn) is WeightedRoundPolicy:
            # The stock turn policy carries its own tunables copy; a
            # custom policy is kept as configured.
            decode_turn = WeightedRoundPolicy(tunables)
        return replace(self, tunables=tunables, decode_turn=decode_turn)
