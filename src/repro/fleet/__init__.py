"""Fleet-scale sharded control plane over the serving systems.

``repro.fleet`` scales the single-pool reproduction out: the model
catalog is consistent-hashed across K shards (each a complete serving
system built from a :class:`~repro.core.serving.SystemSpec`), one pump
process routes a streaming workload by model ownership, and per-shard
streaming stats roll up into fleet-wide latency percentiles, SLO
attainment, and $/token.  An optional :class:`FleetController` closes
the loop live: per-model arrival forecasts drive mid-run catalog
migrations, cross-shard spillover of rejected requests, and per-shard
scaling hints.  See ``DESIGN.md`` ("Fleet architecture" and "The fleet
controller").
"""

from ..core.stats import FleetRollup, ShardStats
from ..obs.metrics import LatencyHistogram
from .controller import (
    ControllerConfig,
    FleetController,
    FleetView,
    ModelForecast,
    ShardTelemetry,
    SpillLedger,
)
from .partition import CatalogPartitioner
from .runner import FleetConfig, FleetRunner, FleetShard, build_fleet

__all__ = [
    "CatalogPartitioner",
    "ControllerConfig",
    "FleetConfig",
    "FleetController",
    "FleetRollup",
    "FleetRunner",
    "FleetShard",
    "FleetView",
    "LatencyHistogram",
    "ModelForecast",
    "ShardStats",
    "ShardTelemetry",
    "SpillLedger",
    "build_fleet",
]
