"""Named policy bundles: each serving system as a configuration.

The registry is what makes Aegaeon, ServerlessLLM(+), MuxServe and the
unified foils *policy bundles over one serving core*: the default
bundles reproduce each system's pre-policy-layer behaviour byte for
byte, and the two non-default bundles (``aegaeon-slo-admission``,
``muxserve-cost-placement``) prove the seam by swapping exactly one
decision point.

Select a bundle by name through :func:`get_bundle`,
``build_system(..., policies="name")``, or the ``REPRO_POLICIES``
environment variable via :meth:`repro.core.RunSettings.from_env`.
"""

from __future__ import annotations

from typing import Union

from .admission import AlwaysAdmit, PlacedModelsAdmission, SloAwareAdmission
from .base import PolicyBundle
from .decode_turn import WeightedRoundPolicy
from .dispatch import (
    AegaeonDispatch,
    AffinityBacklogDispatch,
    AffinityLeastLoadedDispatch,
)
from .placement import CostAwarePlacement, MemoryConstrainedPlacement
from .routing import CostConstrainedRouter, SessionAffinityDispatch
from .scaling import RequestLevelScaling, TokenLevelScaling

__all__ = [
    "register_bundle",
    "get_bundle",
    "resolve_bundle",
    "available_bundles",
]

_BUNDLES: dict[str, PolicyBundle] = {}


def register_bundle(bundle: PolicyBundle) -> PolicyBundle:
    """Add a bundle to the registry (overwrites an existing name)."""
    _BUNDLES[bundle.name] = bundle
    return bundle


def available_bundles() -> list[str]:
    """Registered bundle names, sorted."""
    return sorted(_BUNDLES)


def get_bundle(name: str) -> PolicyBundle:
    """Look up a registered bundle by name."""
    key = name.strip().lower()
    try:
        return _BUNDLES[key]
    except KeyError:
        raise ValueError(
            f"unknown policy bundle {name!r}; known: {available_bundles()}"
        ) from None


def resolve_bundle(
    policies: Union[PolicyBundle, str, None], default: str
) -> PolicyBundle:
    """Turn a config's ``policies`` value into a concrete bundle.

    ``None`` resolves to the system's ``default`` bundle name; a string
    is looked up in the registry; a :class:`PolicyBundle` passes
    through.
    """
    if policies is None:
        return get_bundle(default)
    if isinstance(policies, str):
        return get_bundle(policies)
    return policies


# -- the default bundles (behaviour-preserving) -------------------------------
register_bundle(
    PolicyBundle(
        name="aegaeon",
        system="aegaeon",
        admission=AlwaysAdmit(),
        dispatch=AegaeonDispatch(),
        decode_turn=WeightedRoundPolicy(),
        scaling=TokenLevelScaling(),
        placement=MemoryConstrainedPlacement(),
        description="Token-level preemptive scheduling: grouped prefill "
        "(Alg. 1), weighted decode rounds (Alg. 2), contiguous pools.",
    )
)

register_bundle(
    PolicyBundle(
        name="serverless-llm",
        system="serverless-llm",
        admission=AlwaysAdmit(),
        dispatch=AffinityBacklogDispatch(),
        decode_turn=WeightedRoundPolicy(),
        scaling=RequestLevelScaling(order="fcfs"),
        placement=MemoryConstrainedPlacement(),
        description="Request-level auto-scaling, FCFS queues (§2.3).",
    )
)

register_bundle(
    PolicyBundle(
        name="serverless-llm+",
        system="serverless-llm+",
        admission=AlwaysAdmit(),
        dispatch=AffinityBacklogDispatch(),
        decode_turn=WeightedRoundPolicy(),
        scaling=RequestLevelScaling(order="sjf"),
        placement=MemoryConstrainedPlacement(),
        description="ServerlessLLM with oracle SJF queueing (§7.1).",
    )
)

register_bundle(
    PolicyBundle(
        name="muxserve",
        system="muxserve",
        admission=PlacedModelsAdmission(),
        dispatch=AffinityLeastLoadedDispatch(hosts_only=True),
        decode_turn=WeightedRoundPolicy(),
        scaling=TokenLevelScaling(),
        placement=MemoryConstrainedPlacement(),
        description="Static multiplexing: memory-capped placement, "
        "requests for unplaced models shed at admission (§7.2).",
    )
)

for _policy in ("prefill-first", "decode-first"):
    register_bundle(
        PolicyBundle(
            name=f"unified-{_policy}",
            system=f"unified-{_policy}",
            admission=AlwaysAdmit(),
            dispatch=AffinityLeastLoadedDispatch(),
            decode_turn=WeightedRoundPolicy(),
            scaling=TokenLevelScaling(),
            placement=MemoryConstrainedPlacement(),
            description=f"Unified token-level scheduling, {_policy} (§4.1).",
        )
    )

# -- the new, non-default bundles (the seam's proof) --------------------------
register_bundle(
    PolicyBundle(
        name="aegaeon-slo-admission",
        system="aegaeon",
        admission=SloAwareAdmission(headroom=1.0),
        dispatch=AegaeonDispatch(),
        decode_turn=WeightedRoundPolicy(),
        scaling=TokenLevelScaling(),
        placement=MemoryConstrainedPlacement(),
        description="Aegaeon with SLO-aware load shedding: rejects at "
        "the proxy once queue pressure dooms the TTFT deadline, instead "
        "of only when pools empty-reject.",
    )
)

register_bundle(
    PolicyBundle(
        name="aegaeon-cost-router",
        system="aegaeon",
        admission=CostConstrainedRouter(),
        dispatch=SessionAffinityDispatch(),
        decode_turn=WeightedRoundPolicy(),
        scaling=TokenLevelScaling(),
        placement=MemoryConstrainedPlacement(),
        description="Aegaeon with ECCOS-style cost-constrained routing: "
        "agentic stages pick a model variant by predicted difficulty "
        "under a per-session budget, and dispatch keeps a session's "
        "stages on the instance holding its KV.",
    )
)

register_bundle(
    PolicyBundle(
        name="muxserve-cost-placement",
        system="muxserve",
        admission=PlacedModelsAdmission(),
        dispatch=AffinityLeastLoadedDispatch(hosts_only=True),
        decode_turn=WeightedRoundPolicy(),
        scaling=TokenLevelScaling(),
        placement=CostAwarePlacement(),
        description="MuxServe with heterogeneity-aware placement: GPU "
        "types scored by market cost per token, cheapest filled first.",
    )
)
