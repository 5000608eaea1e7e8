"""Batched decoding-phase scheduling (§4.3, Algorithm 2).

Decoding exploits a unique slack: for target TBT ``d`` and step time
``t``, every ``n = d/t`` decoded steps tolerate ``n*(d - t)`` of delay
without violating per-token deadlines, because the output stream can be
buffered.  Aegaeon therefore rotates decode batches in *rounds* of
weighted turns, sizing each batch's time quota so that the whole round's
auto-scaling cost ``c`` fits inside the earned slack:

    q_i = c / (n_i * (alpha - sum_k 1/n_k))                     (Eq. 2)
    alpha = max(c / (min_k n_k * QMAX) + sum_k 1/n_k, floor)    (Eq. 3)

``1/alpha`` is the round's estimated SLO attainment; the alpha floor
keeps turns short (hence responsive to new batches) when SLOs are
comfortably met.

The quota mathematics lives in :mod:`repro.policy.decode_turn`:
each :class:`~repro.core.instance.DecodeInstance` builds a
``WeightedRoundPolicy`` from its bundle's tunables (``QMAX`` is
``Tunables.qmax``; the floor is ``ALPHA_FLOOR``).  The placement rule
is the bundle's dispatch policy (``BatchedDecodeDispatch`` by default).
This module keeps the executing scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..engine.request import Request
from ..models.catalog import ModelSpec
from ..obs import NULL_OBS, Observability
from ..policy.dispatch import BatchedDecodeDispatch

__all__ = [
    "BatchedDecodeScheduler",
    "DecodeBatch",
    "DecodeInstanceLike",
]


@dataclass
class DecodeBatch:
    """Same-model requests decoded together in one turn."""

    spec: ModelSpec
    requests: list[Request] = field(default_factory=list)
    max_size: int = 32
    quota: float = 0.0

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def has_room(self) -> bool:
        return self.size < self.max_size

    @property
    def context_tokens(self) -> int:
        """Total KV tokens the batch attends over this step."""
        return sum(request.context_tokens for request in self.requests)

    @property
    def exhausted(self) -> bool:
        return not self.requests


class DecodeInstanceLike(Protocol):
    """What the scheduler needs from a decode instance."""

    work_list: list[DecodeBatch]

    def batch_capacity(self, spec: ModelSpec) -> int:
        ...

    def kick(self) -> None:
        ...


class BatchedDecodeScheduler:
    """Algorithm 2's dispatch side: place prefilled requests in batches.

    The placement *decision* comes from the bundle's
    :class:`~repro.policy.DispatchPolicy` (default:
    :class:`~repro.policy.BatchedDecodeDispatch`); the scheduler
    executes it against its own copy of the instance list — the
    policy-facing view — so callers' pool lists are never mutated and a
    failed instance can be removed without touching them.
    """

    def __init__(
        self,
        instances: list[DecodeInstanceLike],
        obs: Observability = NULL_OBS,
        policy: Optional[BatchedDecodeDispatch] = None,
    ):
        if not instances:
            raise ValueError("need at least one decode instance")
        # The scheduler owns its dispatch list (the policy's view);
        # removing a failed instance must not mutate the caller's pool.
        self.instances = list(instances)
        self.policy = policy if policy is not None else BatchedDecodeDispatch()
        self._tracer = obs.tracer
        scope = obs.scoped("decode_sched")
        self._joined_counter = scope.counter("batches_joined")
        self._opened_counter = scope.counter("batches_opened")

    def dispatch(self, request: Request) -> DecodeInstanceLike:
        """Place a prefilled request; returns the chosen instance.

        Raises ``LookupError`` when every decode instance has been
        removed (failed) — the server turns that into a failure.
        """
        if not self.instances:
            raise LookupError("no live decode instances")
        instance, batch, decision = self.policy.place_decode(self, request)
        if batch is not None:
            batch.requests.append(request)
            self._joined_counter.inc()
        else:
            batch = DecodeBatch(
                spec=request.spec,
                requests=[request],
                max_size=instance.batch_capacity(request.spec),
            )
            instance.work_list.append(batch)
            self._opened_counter.inc()
        instance.kick()
        self._note_dispatch(request, decision)
        return instance

    def _note_dispatch(self, request: Request, decision: str) -> None:
        if self._tracer.enabled:
            self._tracer.instant(
                "decode_dispatch", cat="sched", track="decode_sched",
                request_id=request.request_id, model=request.model,
                decision=decision,
            )
