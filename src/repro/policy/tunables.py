"""The tuning constants of the control plane, centralized.

Before the policy layer these lived as module-level magic numbers
scattered across the codebase: ``QMAX = 4.0`` and the 0.5 alpha floor in
``core/decode_sched.py``, ``MAX_GPSIZE`` in ``core/prefill_sched.py``,
the orphan-requeue grace period in ``core/server.py``, and the
checkpoint-fetch retry/backoff parameters in ``transfer/loader.py``.
(KV-cache pressure has no pacing knob: instances wait for an allocator
free, never on a timer.)  They are now fields
of one frozen :class:`Tunables` dataclass carried by every
:class:`~repro.policy.PolicyBundle`.  A run changes one through
:meth:`~repro.policy.PolicyBundle.with_tunables`, e.g.
``get_bundle("aegaeon").with_tunables(Tunables(qmax=2.0))``.

The defaults reproduce the paper's published settings exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tunables", "DEFAULT_TUNABLES"]


@dataclass(frozen=True)
class Tunables:
    """Every scalar knob the scheduling/scaling policies depend on."""

    #: Maximum per-turn decode quota, seconds (§4.3; the paper sets 4 s
    #: empirically and reports robustness to alternative settings).
    qmax: float = 4.0
    #: Floor on Eq. 3's alpha: keeps turns short (hence responsive to
    #: new batches) when SLOs are comfortably met.
    alpha_floor: float = 0.5
    #: Algorithm 1's MAX_GPSIZE: accumulative cap on a prefill group.
    max_prefill_group: int = 8
    #: Grace period before a failed instance's orphans are requeued —
    #: the timeout half of timeout-and-requeue (the proxy tier would
    #: take this long to notice the instance stopped heartbeating).
    orphan_requeue_delay: float = 0.01
    #: Max retries after a failed remote checkpoint fetch before the
    #: loader raises ``CheckpointFetchError``.
    fetch_max_retries: int = 4
    #: Base of the loader's exponential fetch backoff (doubles per retry).
    fetch_backoff_base: float = 0.05
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
        if self.alpha_floor <= 0:
            raise ValueError("alpha_floor must be positive")
        if self.max_prefill_group <= 0:
            raise ValueError("max_prefill_group must be positive")
        if self.orphan_requeue_delay < 0:
            raise ValueError("orphan_requeue_delay must be non-negative")
        if self.fetch_max_retries < 0 or self.fetch_backoff_base < 0:
            raise ValueError("fetch retry parameters must be non-negative")
        if self.router_session_budget_usd <= 0:
            raise ValueError("router_session_budget_usd must be positive")
        if not 0.0 <= self.router_difficulty_threshold <= 1.0:
            raise ValueError("router_difficulty_threshold must be in [0, 1]")
        if self.router_usd_per_mtok_b <= 0:
            raise ValueError("router_usd_per_mtok_b must be positive")


DEFAULT_TUNABLES = Tunables()
