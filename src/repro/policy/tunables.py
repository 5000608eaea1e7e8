"""The tuning constants a run can change, in one place.

A field lives here only when some run sets it: the decode quota cap
``qmax`` and Algorithm 1's ``MAX_GPSIZE`` (the ablation benches sweep
both), and the cost router's three deployment settings, which are read
together.  Every other constant sits next to the code that reads it
(``ALPHA_FLOOR`` in :mod:`repro.policy.decode_turn`,
``ORPHAN_REQUEUE_DELAY`` in :mod:`repro.core.server`, the loader's
fetch retries in :mod:`repro.transfer.loader`).  One frozen
:class:`Tunables` rides on every :class:`~repro.policy.PolicyBundle`,
and a run changes it through
:meth:`~repro.policy.PolicyBundle.with_tunables`, e.g.
``get_bundle("aegaeon").with_tunables(Tunables(qmax=2.0))``.

The defaults reproduce the paper's published settings exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tunables", "DEFAULT_TUNABLES"]


@dataclass(frozen=True)
class Tunables:
    """The scalar knobs a run may set on the scheduling policies."""

    #: Maximum per-turn decode quota, seconds (§4.3; the paper sets 4 s
    #: empirically and reports robustness to alternative settings).
    qmax: float = 4.0
    #: Algorithm 1's MAX_GPSIZE: accumulative cap on a prefill group.
    max_prefill_group: int = 8
    #: Cost-router budget: max realized USD spend per agentic session
    #: (see :class:`repro.policy.routing.CostConstrainedRouter`).
    router_session_budget_usd: float = 0.001
    #: Stages at or above this predicted difficulty prefer the largest
    #: model variant; easier stages prefer the smallest.
    router_difficulty_threshold: float = 0.6
    #: Price rate for the router's cost model: USD per million tokens
    #: per billion parameters (size-proportional API pricing).
    router_usd_per_mtok_b: float = 0.02

    def __post_init__(self) -> None:
        if self.qmax <= 0:
            raise ValueError("qmax must be positive")
        if self.max_prefill_group <= 0:
            raise ValueError("max_prefill_group must be positive")
        if self.router_session_budget_usd <= 0:
            raise ValueError("router_session_budget_usd must be positive")
        if not 0.0 <= self.router_difficulty_threshold <= 1.0:
            raise ValueError("router_difficulty_threshold must be in [0, 1]")
        if self.router_usd_per_mtok_b <= 0:
            raise ValueError("router_usd_per_mtok_b must be positive")


DEFAULT_TUNABLES = Tunables()
