"""Aegaeon core: token-level scheduling, instances, and the serving API."""

from .decode_sched import BatchedDecodeScheduler, DecodeBatch
from .instance import DecodeInstance, PrefillInstance
from .prefill_sched import GroupedPrefillScheduler, PrefillGroup
from .proxy import DrainWatchdog, ProxyLayer, Pump, StatusRegistry, replay
from .server import AegaeonConfig, AegaeonServer
from .sessions import SessionCoordinator, SessionStats
from .serving import (
    RunSettings,
    ServingSystem,
    ServingSystemBase,
    SystemConfig,
    SystemSpec,
    available_systems,
    build_system,
    resolve_cluster,
)
from .slo import DEFAULT_SLO, SloSpec, token_deadlines, tokens_met
from .unified import DECODE_FIRST, PREFILL_FIRST, UnifiedInstance, UnifiedServer

__all__ = [
    "AegaeonConfig",
    "AegaeonServer",
    "BatchedDecodeScheduler",
    "DEFAULT_SLO",
    "DecodeBatch",
    "DecodeInstance",
    "DrainWatchdog",
    "GroupedPrefillScheduler",
    "PrefillGroup",
    "PrefillInstance",
    "ProxyLayer",
    "Pump",
    "RunSettings",
    "ServingSystem",
    "ServingSystemBase",
    "SessionCoordinator",
    "SessionStats",
    "SloSpec",
    "StatusRegistry",
    "SystemConfig",
    "SystemSpec",
    "DECODE_FIRST",
    "PREFILL_FIRST",
    "UnifiedInstance",
    "UnifiedServer",
    "available_systems",
    "build_system",
    "replay",
    "resolve_cluster",
    "token_deadlines",
    "tokens_met",
]
