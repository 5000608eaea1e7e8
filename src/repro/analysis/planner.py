"""Capacity planning: size an Aegaeon pool for a workload.

The deployment question behind §7.5 — "how many GPUs does this set of
models actually need?" — asked programmatically: sweep candidate pool
shapes from small to large and return the first that meets the SLO
attainment threshold, alongside the dedicated-GPU baseline for the
savings figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.server import AegaeonConfig, AegaeonServer
from ..core.slo import DEFAULT_SLO, SloSpec
from ..engine.engine import EngineConfig
from ..hardware.cluster import Cluster
from ..hardware.gpu import GpuSpec
from ..sim import Environment
from ..workload.trace import Trace
from .metrics import ServingResult

__all__ = ["PoolPlan", "plan_pool", "DEFAULT_CANDIDATES"]

# Candidate (prefill, decode) splits, smallest first.  The prefill:decode
# ratio tracks the paper's 6:10 testbed split.
DEFAULT_CANDIDATES: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 3),
    (2, 4),
    (2, 6),
    (3, 6),
    (4, 8),
    (6, 10),
)


@dataclass(frozen=True)
class PoolPlan:
    """Outcome of a capacity-planning sweep."""

    prefill_instances: int
    decode_instances: int
    tp: int
    attainment: float
    result: ServingResult

    @property
    def gpus(self) -> int:
        return (self.prefill_instances + self.decode_instances) * self.tp

    def saving_versus_dedicated(self, model_count: int) -> float:
        """GPU saving against one dedicated TP group per model."""
        dedicated = model_count * self.tp
        return 1.0 - self.gpus / dedicated

    def __str__(self) -> str:
        return (
            f"{self.prefill_instances}P+{self.decode_instances}D "
            f"(TP={self.tp}, {self.gpus} GPUs, {self.attainment:.1%} SLO)"
        )


def plan_pool(
    trace: Trace,
    gpu_spec: GpuSpec,
    slo: SloSpec = DEFAULT_SLO,
    threshold: float = 0.90,
    candidates: Sequence[tuple[int, int]] = DEFAULT_CANDIDATES,
    engine: Optional[EngineConfig] = None,
) -> Optional[PoolPlan]:
    """Smallest candidate pool meeting ``threshold`` attainment on ``trace``.

    Each candidate is evaluated on a fresh simulation (same trace, same
    seed), smallest GPU count first.  Returns None if no candidate
    qualifies.
    """
    engine = engine if engine is not None else EngineConfig()
    ordered = sorted(candidates, key=lambda pd: pd[0] + pd[1])
    for prefill, decode in ordered:
        gpus_needed = (prefill + decode) * engine.tp
        env = Environment()
        cluster = Cluster.homogeneous(
            env, gpu_spec, node_count=1, gpus_per_node=gpus_needed
        )
        server = AegaeonServer(
            env,
            cluster,
            AegaeonConfig(
                prefill_instances=prefill,
                decode_instances=decode,
                engine=engine,
                slo=slo,
            ),
        )
        result = server.serve(trace)
        attainment = result.slo_attainment
        if attainment >= threshold:
            return PoolPlan(
                prefill_instances=prefill,
                decode_instances=decode,
                tp=engine.tp,
                attainment=attainment,
                result=result,
            )
    return None
