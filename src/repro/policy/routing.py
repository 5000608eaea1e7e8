"""Cost-constrained model routing and session-affinity dispatch.

The ECCOS framing (PAPERS.md): an agentic stage names the model
*variants* it may run on (a cheap small model and the flagship), carries
a predicted difficulty, and the platform picks the variant per stage so
the session's total spend stays under a budget.  Two policies implement
it on the existing seams:

* :class:`CostConstrainedRouter` — an :class:`~repro.policy.base.
  AdmissionPolicy` that *rewrites the request's model* before dispatch:
  hard stages route to the largest variant, easy ones to the smallest,
  and when the preferred variant would blow the session's remaining
  budget the router walks down to cheaper variants, rejecting the stage
  outright (reason ``"session_budget"``) only when even the cheapest
  does not fit.  Realized spend therefore **never** exceeds the budget —
  the property the contract tests pin.
* :class:`SessionAffinityDispatch` — the Aegaeon dispatch rules plus a
  per-scheduler session→instance memo, so consecutive stages of one
  session land where the session's KV already lives instead of wherever
  the load heuristic points.

Both are no-ops for plain market traffic (no ``variants``/``affinity``
on the trace), which is what lets the ``aegaeon-cost-router`` bundle
pass the generic per-bundle conformance suite unchanged.

Policy objects are shared across systems/shards, so all routing state
lives on the ``system``/``scheduler`` (the rule
:class:`~repro.policy.base.PolicyBundle` documents), keyed per run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from .base import policy_event
from .dispatch import AegaeonDispatch

__all__ = ["CostConstrainedRouter", "SessionAffinityDispatch", "stage_cost_usd"]

#: FIFO cap on each scheduler's session→instance memo.
_AFFINITY_CAP = 4096


def stage_cost_usd(
    input_tokens: int, output_tokens: int, params_b: float, usd_per_mtok_b: float
) -> float:
    """Marginal cost of one stage on one variant.

    Priced as (total tokens in millions) x (model size in billions of
    parameters) x a $/Mtok/B rate — the standard size-proportional
    API-pricing shape, so a 7B variant is ~10x cheaper than a 72B one
    for the same stage.
    """
    return (input_tokens + output_tokens) / 1e6 * params_b * usd_per_mtok_b


class CostConstrainedRouter:
    """Route each agentic stage across its variants under a session budget.

    Its knobs are the bundle's
    :class:`~repro.policy.tunables.Tunables` fields
    (``router_session_budget_usd``, ``router_difficulty_threshold``,
    ``router_usd_per_mtok_b``), read from ``system.policies.tunables``,
    so a bundle built with :meth:`~repro.policy.PolicyBundle.with_tunables`
    reaches them.
    """

    @staticmethod
    def spend_of(system: Any) -> dict[int, float]:
        """This run's realized per-session spend (USD), keyed by session."""
        return system.__dict__.setdefault("_router_spend", {})

    @staticmethod
    def counts_of(system: Any) -> dict[str, int]:
        """This run's routing decision counters."""
        return system.__dict__.setdefault(
            "_router_counts", {"kept": 0, "downgraded": 0, "upgraded": 0, "shed": 0}
        )

    def decide(self, system: Any, request: Any) -> Optional[str]:
        trace = request.trace
        variants = getattr(trace, "variants", ())
        if len(variants) < 2:
            return None  # not routable: plain traffic passes untouched
        specs = [
            system.spec_index[name]
            for name in variants
            if name in system.spec_index
        ]
        if len(specs) < 2:
            return None  # variants unknown to this run; don't guess
        specs.sort(key=lambda spec: (spec.params, spec.name))
        tunables = system.policies.tunables
        budget = tunables.router_session_budget_usd
        threshold = tunables.router_difficulty_threshold
        rate = tunables.router_usd_per_mtok_b
        spend = self.spend_of(system)
        counts = self.counts_of(system)
        session = getattr(trace, "session", 0)
        spent = spend.get(session, 0.0)

        preferred = (
            len(specs) - 1 if trace.difficulty >= threshold else 0
        )
        chosen = None
        # Walk down from the preferred variant to cheaper ones until the
        # session's remaining budget covers the stage.
        for index in range(preferred, -1, -1):
            spec = specs[index]
            cost = stage_cost_usd(
                trace.input_tokens, trace.output_tokens, spec.params_b, rate
            )
            if spent + cost <= budget + 1e-12:
                chosen = spec
                break
        if chosen is None:
            # Even the cheapest variant does not fit: shed the stage.
            # no_spill tells the fleet controller this rejection is a
            # budget decision, not a capacity problem — re-routing it to
            # another shard would evade the budget.
            request.no_spill = True
            counts["shed"] += 1
            policy_event(
                system.obs.tracer, "route", decision="shed",
                reason="session_budget", request_id=trace.request_id,
                session=session, stage=getattr(trace, "stage", 0),
                spent=spent,
            )
            return "session_budget"

        spend[session] = spent + cost
        if chosen.name != trace.model:
            base = system.spec_index.get(trace.model)
            if base is not None and chosen.params > base.params:
                decision = "upgrade"
                counts["upgraded"] += 1
            else:
                decision = "downgrade"
                counts["downgraded"] += 1
            # Rewrite the request in place: Request.model/spec follow the
            # trace, and token budgets were already copied at admission.
            request.trace = replace(trace, model=chosen.name)
            request.spec = chosen
        else:
            counts["kept"] += 1
            decision = "keep"
        policy_event(
            system.obs.tracer, "route", decision=decision,
            model=chosen.name, request_id=trace.request_id,
            session=session, stage=getattr(trace, "stage", 0),
            cost=cost, spent=spend[session],
        )
        return None


class SessionAffinityDispatch(AegaeonDispatch):
    """Aegaeon's dispatch rules, plus stickiness for session KV.

    Each scheduler keeps a bounded session→instance memo.  A stage whose
    trace carries an ``affinity`` tag prefers the memoized instance —
    joining an open same-model group/batch there, else opening one — and
    falls back to the stock rules (which then seed the memo) when the
    tag is unknown or the instance left the pool.  Market requests (no
    tag) take the stock path untouched.
    """

    @staticmethod
    def _table(scheduler: Any) -> dict[str, Any]:
        return scheduler.__dict__.setdefault("_session_affinity", {})

    @staticmethod
    def _remember(table: dict[str, Any], tag: str, instance: Any) -> None:
        if tag not in table and len(table) >= _AFFINITY_CAP:
            table.pop(next(iter(table)))
        table[tag] = instance

    def place_prefill(self, scheduler: Any, request: Any) -> tuple[Any, Any, str]:
        tag = getattr(request.trace, "affinity", "")
        if not tag:
            return super().place_prefill(scheduler, request)
        table = self._table(scheduler)
        instance = table.get(tag)
        if instance is not None and instance in scheduler.instances:
            for group in instance.groups:
                if (
                    group.spec.name == request.spec.name
                    and group.accumulated < scheduler.max_group_size
                ):
                    return instance, group, "affinity-join"
            return instance, None, "affinity-open"
        instance, group, how = super().place_prefill(scheduler, request)
        self._remember(table, tag, instance)
        return instance, group, how

    def place_decode(self, scheduler: Any, request: Any) -> tuple[Any, Any, str]:
        tag = getattr(request.trace, "affinity", "")
        if not tag:
            return super().place_decode(scheduler, request)
        table = self._table(scheduler)
        instance = table.get(tag)
        if instance is not None and instance in scheduler.instances:
            for batch in instance.work_list:
                if batch.spec.name == request.spec.name and batch.has_room:
                    return instance, batch, "affinity-join"
            return instance, None, "affinity-open"
        instance, batch, how = super().place_decode(scheduler, request)
        self._remember(table, tag, instance)
        return instance, batch, how
