"""vLLM-like inference-engine simulation with preemptive auto-scaling."""

from .batching import BatchingPolicy, ContinuousBatcher
from .block_manager import BlockManager
from .engine import AegaeonEngine, EngineConfig, ScaleRecord, SwitchLog, SwitchRecords
from .init_stages import DEFAULT_INIT_COSTS, SWITCH_STAGES, InitStageCosts
from .request import Phase, Request

__all__ = [
    "AegaeonEngine",
    "BatchingPolicy",
    "BlockManager",
    "ContinuousBatcher",
    "DEFAULT_INIT_COSTS",
    "EngineConfig",
    "InitStageCosts",
    "Phase",
    "Request",
    "ScaleRecord",
    "SWITCH_STAGES",
    "SwitchLog",
    "SwitchRecords",
]
