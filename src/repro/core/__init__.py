"""Aegaeon core: token-level scheduling, instances, and the serving API."""

from .decode_sched import (
    BatchedDecodeScheduler,
    DecodeBatch,
    QMAX,
    compute_quotas,
    estimate_round_attainment,
    reorder_work_list,
)
from .instance import DecodeInstance, PrefillInstance
from .prefill_sched import (
    GroupedPrefillScheduler,
    MAX_GPSIZE,
    PrefillGroup,
)
from .proxy import DrainWatchdog, ProxyLayer, Pump, StatusRegistry, replay
from .server import AegaeonConfig, AegaeonServer
from .sessions import SessionCoordinator, SessionStats
from .serving import (
    BaselineServer,
    MuxServeConfig,
    RunSettings,
    ServerlessLLMConfig,
    ServingSystem,
    ServingSystemBase,
    SystemConfig,
    SystemSpec,
    UnifiedConfig,
    available_systems,
    build_system,
    resolve_cluster,
)
from .slo import DEFAULT_SLO, SloSpec, token_deadlines, tokens_met
from .unified import DECODE_FIRST, PREFILL_FIRST, UnifiedInstance, UnifiedServer

__all__ = [
    "AegaeonConfig",
    "AegaeonServer",
    "BaselineServer",
    "BatchedDecodeScheduler",
    "DEFAULT_SLO",
    "DecodeBatch",
    "DecodeInstance",
    "DrainWatchdog",
    "GroupedPrefillScheduler",
    "MAX_GPSIZE",
    "MuxServeConfig",
    "PrefillGroup",
    "PrefillInstance",
    "ProxyLayer",
    "Pump",
    "QMAX",
    "RunSettings",
    "ServerlessLLMConfig",
    "ServingSystem",
    "ServingSystemBase",
    "SessionCoordinator",
    "SessionStats",
    "SloSpec",
    "StatusRegistry",
    "SystemConfig",
    "SystemSpec",
    "UnifiedConfig",
    "DECODE_FIRST",
    "PREFILL_FIRST",
    "UnifiedInstance",
    "UnifiedServer",
    "available_systems",
    "build_system",
    "compute_quotas",
    "estimate_round_attainment",
    "reorder_work_list",
    "replay",
    "resolve_cluster",
    "token_deadlines",
    "tokens_met",
]
