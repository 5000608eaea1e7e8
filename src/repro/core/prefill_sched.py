"""Grouped prefill-phase scheduling (§4.2, Algorithm 1).

Prefill jobs are grouped by model to amortize auto-scaling: a new request
first tries to join an existing group for its model (anywhere in the
pool) provided the group's *accumulative* size is below ``MAX_GPSIZE``;
otherwise it opens a new group on the least-loaded prefill instance,
where load is the estimated time to finish every pending group —
execution plus the auto-scaling between groups (Appendix A.2).
``MAX_GPSIZE`` is ``Tunables.max_prefill_group``, grid-searched to 8 in
the paper: larger values behave identically because groups seldom grow
past 8, smaller ones re-scale too often under load.

Batch size on prefill instances is one: prefill time grows ~linearly
with tokens, so smaller batches cut waiting time without hurting
throughput and release requests to the decoding phase eagerly.

The placement rule itself lives in :mod:`repro.policy`
(:class:`~repro.policy.GroupedPrefillDispatch` is the default); the
scheduler here executes the decision against its own copy of the
instance list — the policy-facing view.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..engine.request import Request
from ..models.catalog import ModelSpec
from ..obs import NULL_OBS, Observability
from ..policy.dispatch import GroupedPrefillDispatch
from ..policy.tunables import DEFAULT_TUNABLES

__all__ = ["PrefillGroup", "PrefillInstanceLike", "GroupedPrefillScheduler"]


@dataclass
class PrefillGroup:
    """A run of same-model prefill jobs executed back to back."""

    spec: ModelSpec
    requests: deque[Request] = field(default_factory=deque)
    # Accumulative: executing a request does NOT decrease this (the
    # Algorithm 1 line 6 check), bounding deviation from FCFS.
    accumulated: int = 0

    def add(self, request: Request) -> None:
        """Append a request, growing the accumulative size."""
        self.requests.append(request)
        self.accumulated += 1

    @property
    def exhausted(self) -> bool:
        return not self.requests


class PrefillInstanceLike(Protocol):
    """What the scheduler needs from a prefill instance."""

    groups: list[PrefillGroup]

    def estimate_group_time(self, group: PrefillGroup, previous: Optional[ModelSpec]) -> float:
        ...

    def current_model(self) -> Optional[ModelSpec]:
        ...

    def kick(self) -> None:
        ...


class GroupedPrefillScheduler:
    """Algorithm 1: grouped FCFS dispatch across prefill instances."""

    def __init__(
        self,
        instances: list[PrefillInstanceLike],
        max_group_size: int = DEFAULT_TUNABLES.max_prefill_group,
        obs: Observability = NULL_OBS,
        policy: Optional[GroupedPrefillDispatch] = None,
    ):
        if not instances:
            raise ValueError("need at least one prefill instance")
        if max_group_size <= 0:
            raise ValueError("max_group_size must be positive")
        # The scheduler owns its dispatch list (the policy's view);
        # removing a failed instance must not mutate the caller's pool.
        self.instances = list(instances)
        self.max_group_size = max_group_size
        self.policy = policy if policy is not None else GroupedPrefillDispatch()
        self._tracer = obs.tracer
        scope = obs.scoped("prefill_sched")
        self._joined_counter = scope.counter("groups_joined")
        self._opened_counter = scope.counter("groups_opened")

    def dispatch(self, request: Request) -> PrefillInstanceLike:
        """Place one request; returns the instance that received it.

        Raises ``LookupError`` when every prefill instance has been
        removed (failed) — the server turns that into a rejection.
        """
        if not self.instances:
            raise LookupError("no live prefill instances")
        instance, group, decision = self.policy.place_prefill(self, request)
        if group is not None:
            group.add(request)
            self._joined_counter.inc()
        else:
            group = PrefillGroup(spec=request.spec)
            group.add(request)
            instance.groups.append(group)
            self._opened_counter.inc()
        instance.kick()
        self._note_dispatch(request, decision)
        return instance

    def _note_dispatch(self, request: Request, decision: str) -> None:
        if self._tracer.enabled:
            self._tracer.instant(
                "prefill_dispatch", cat="sched", track="prefill_sched",
                request_id=request.request_id, model=request.model,
                decision=decision,
            )

    def estimate_load(self, instance: PrefillInstanceLike) -> float:
        """Time to finish all pending groups: execution + auto-scaling."""
        load = 0.0
        previous = instance.current_model()
        for group in instance.groups:
            load += instance.estimate_group_time(group, previous)
            previous = group.spec
        return load
