"""Decode-round ordering and weighted-turn quotas (§4.3, Eqs. 2-3).

Every decode instance builds one :class:`WeightedRoundPolicy` from its
bundle's :class:`~repro.policy.tunables.Tunables` (``qmax``, the quota
cap, is the one knob a run sets); the Eq. 3 floor is the module
constant :data:`ALPHA_FLOOR`.  The rounds run in
``repro.core.instance``; ``repro.core.decode_sched`` only batches
requests onto instances.

For target TBT ``d`` and step time ``t``, every ``n = d/t`` decoded
steps tolerate ``n*(d - t)`` of delay without violating per-token
deadlines, because the output stream can be buffered.  A round of
weighted turns sizes each batch's time quota so the whole round's
auto-scaling cost ``c`` fits inside the earned slack:

    q_i = c / (n_i * (alpha - sum_k 1/n_k))                     (Eq. 2)
    alpha = max(c / (min_k n_k * qmax) + sum_k 1/n_k, floor)    (Eq. 3)

``1/alpha`` is the round's estimated SLO attainment.
"""

from __future__ import annotations

from typing import Sequence

from .tunables import DEFAULT_TUNABLES, Tunables

__all__ = [
    "ALPHA_FLOOR",
    "reorder_work_list",
    "compute_quotas",
    "estimate_round_attainment",
    "WeightedRoundPolicy",
]

#: Floor on Eq. 3's alpha: keeps turns short (hence responsive to new
#: batches) when SLOs are comfortably met.
ALPHA_FLOOR = 0.5


def reorder_work_list(work_list: list) -> list:
    """Group batches of the same model adjacently, preserving first-seen order.

    Same-model batches occur when one batch's KV needs exceed the GPU
    cache; placing them adjacently avoids pointless switches.  When the
    list is already grouped — the overwhelmingly common case — the input
    list itself is returned, letting callers skip the copy-back.
    """
    order: dict[str, int] = {}
    sorted_already = True
    last_index = -1
    for batch in work_list:
        index = order.setdefault(batch.spec.name, len(order))
        if index < last_index:
            sorted_already = False
        last_index = index
    if sorted_already:
        return work_list
    indexed = sorted(
        enumerate(work_list),
        key=lambda item: (order[item[1].spec.name], item[0]),
    )
    return [batch for _, batch in indexed]


def compute_quotas(
    batches: Sequence,
    step_times: Sequence[float],
    total_switch_cost: float,
    slo,
    qmax: float = DEFAULT_TUNABLES.qmax,
) -> list[float]:
    """Assign the Eq. 2 time quota to every batch in a round.

    ``step_times`` are the estimated per-step decode times ``t_k``;
    ``total_switch_cost`` is ``c``, the summed auto-scaling overhead of
    the round's model switches.
    """
    if len(batches) != len(step_times):
        raise ValueError("need one step-time estimate per batch")
    if not batches:
        return []
    # n_k = d / t_k, the tokens one TBT period buys.
    slack_ratios = [max(slo.tbt / max(t, 1e-9), 1.0 + 1e-9) for t in step_times]
    inverse_sum = sum(1.0 / n for n in slack_ratios)
    if total_switch_cost <= 0.0 or len(batches) == 1:
        # No scaling cost to amortize: turns default to the maximum
        # quota (a single batch simply keeps decoding).
        return [qmax] * len(batches)
    alpha = max(
        total_switch_cost / (min(slack_ratios) * qmax) + inverse_sum,
        ALPHA_FLOOR,
    )
    quotas = []
    for n in slack_ratios:
        quota = total_switch_cost / (n * (alpha - inverse_sum))
        quotas.append(min(max(quota, 0.0), qmax))
    return quotas


def estimate_round_attainment(
    step_times: Sequence[float],
    total_switch_cost: float,
    slo,
    qmax: float = DEFAULT_TUNABLES.qmax,
) -> float:
    """The scheduler's own 1/alpha attainment estimate for a round."""
    if not step_times:
        return 1.0
    slack_ratios = [max(slo.tbt / max(t, 1e-9), 1.0 + 1e-9) for t in step_times]
    inverse_sum = sum(1.0 / n for n in slack_ratios)
    if total_switch_cost <= 0.0:
        return 1.0
    alpha = max(
        total_switch_cost / (min(slack_ratios) * qmax) + inverse_sum, ALPHA_FLOOR
    )
    return min(1.0, 1.0 / alpha)


class WeightedRoundPolicy:
    """Algorithm 2's round shape: model-grouped order, Eq. 2-3 quotas.

    Each :class:`~repro.core.instance.DecodeInstance` builds one from
    its bundle's tunables, so ``qmax`` is the run's quota cap.
    """

    def __init__(self, tunables: Tunables = DEFAULT_TUNABLES):
        self.tunables = tunables

    def order(self, work_list: list) -> list:
        return reorder_work_list(work_list)

    def quotas(
        self, batches: Sequence, step_times: Sequence[float],
        switch_cost: float, slo,
    ) -> list[float]:
        return compute_quotas(
            batches, step_times, switch_cost, slo, qmax=self.tunables.qmax
        )
