"""The pluggable policy layer: every control-plane decision, swappable.

Four protocols name the decision points the serving systems share
(:class:`AdmissionPolicy`, :class:`DispatchPolicy`,
:class:`ScalingPolicy`, :class:`PlacementPolicy`); a
:class:`PolicyBundle` packages one choice per point plus the
:class:`Tunables` they share, and the registry's named bundles turn
Aegaeon, ServerlessLLM(+), MuxServe and the unified foils into
configurations of one serving core.  See DESIGN.md
("The policy layer") for the bundle table and how to add a policy.
"""

from .admission import AlwaysAdmit, PlacedModelsAdmission, SloAwareAdmission
from .base import (
    AdmissionPolicy,
    DispatchPolicy,
    FleetControlPolicy,
    PlacementPolicy,
    PolicyBundle,
    ScalingPolicy,
    policy_event,
)
from .fleet_control import (
    ForecastFleetControl,
    StaticFleetControl,
    available_fleet_policies,
    get_fleet_policy,
    register_fleet_policy,
)
from .decode_turn import (
    WeightedRoundPolicy,
    compute_quotas,
    estimate_round_attainment,
    reorder_work_list,
)
from .dispatch import (
    AegaeonDispatch,
    AffinityBacklogDispatch,
    AffinityLeastLoadedDispatch,
    BatchedDecodeDispatch,
    GroupedPrefillDispatch,
)
from .placement import (
    MARKET_HOURLY_USD,
    MIN_KV_BYTES,
    CostAwarePlacement,
    MemoryConstrainedPlacement,
)
from .registry import (
    available_bundles,
    get_bundle,
    register_bundle,
    resolve_bundle,
)
from .routing import CostConstrainedRouter, SessionAffinityDispatch, stage_cost_usd
from .scaling import RequestLevelScaling, TokenLevelScaling
from .tunables import DEFAULT_TUNABLES, Tunables

__all__ = [
    "AdmissionPolicy",
    "AegaeonDispatch",
    "AffinityBacklogDispatch",
    "AffinityLeastLoadedDispatch",
    "AlwaysAdmit",
    "BatchedDecodeDispatch",
    "CostAwarePlacement",
    "CostConstrainedRouter",
    "DEFAULT_TUNABLES",
    "DispatchPolicy",
    "FleetControlPolicy",
    "ForecastFleetControl",
    "GroupedPrefillDispatch",
    "MARKET_HOURLY_USD",
    "MIN_KV_BYTES",
    "MemoryConstrainedPlacement",
    "PlacedModelsAdmission",
    "PlacementPolicy",
    "PolicyBundle",
    "RequestLevelScaling",
    "ScalingPolicy",
    "SessionAffinityDispatch",
    "SloAwareAdmission",
    "StaticFleetControl",
    "TokenLevelScaling",
    "Tunables",
    "WeightedRoundPolicy",
    "available_bundles",
    "available_fleet_policies",
    "compute_quotas",
    "estimate_round_attainment",
    "get_bundle",
    "get_fleet_policy",
    "policy_event",
    "register_bundle",
    "register_fleet_policy",
    "reorder_work_list",
    "resolve_bundle",
    "stage_cost_usd",
]
