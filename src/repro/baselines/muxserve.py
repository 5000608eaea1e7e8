"""MuxServe baseline: static multiplexing (§2.3, §7.2).

MuxServe colocates a few models on each GPU — weights permanently
resident — and multiplexes compute between them.  Its defining
properties, both reproduced here:

* **No auto-scaling cost.**  Switching between colocated models is free,
  which is why MuxServe wins under the strictest SLOs (Figure 13(c)).
* **Hard memory cap.**  The placement optimizer refuses to colocate
  models whose weights plus a minimum KV reservation exceed VRAM — at
  most two 14B models per 80 GB GPU, so at most ~2 models/GPU of
  pooling (the §7.2 observation that MuxServe serves at most 32 models
  on 16 GPUs).  Requests for unplaced models are shed at admission by
  the bundle's :class:`~repro.policy.PlacedModelsAdmission`.

The placement rule itself is the bundle's
:class:`~repro.policy.PlacementPolicy` — memory-constrained first-fit by
default, or :class:`~repro.policy.CostAwarePlacement` under the
``muxserve-cost-placement`` bundle on heterogeneous pools.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.batcher import BatcherInstanceBase
from ..core.serving import BaselineServer
from ..core.slo import DEFAULT_SLO, SloSpec
from ..engine.batching import BatchingPolicy, ContinuousBatcher
from ..engine.block_manager import BlockManager
from ..engine.request import Request
from ..hardware.cluster import Cluster
from ..hardware.gpu import GpuSpec
from ..models.catalog import ModelSpec
from ..models.latency import LatencyModel
from ..obs import ObsConfig, Observability
from ..policy.placement import MIN_KV_BYTES, MemoryConstrainedPlacement
from ..sim import Environment
from ..workload.trace import Trace

__all__ = ["MuxServe", "DedicatedServing", "SharedGpuInstance", "plan_placement"]

GiB = 1024**3

# Interleave granularity between colocated models (fine-grained
# temporal multiplexing: a few decode steps per turn, no switch cost).
MUX_CHUNK_STEPS = 4


def plan_placement(
    models: list[ModelSpec],
    gpu_count: int,
    gpu_spec: GpuSpec,
    min_kv_bytes: int = MIN_KV_BYTES,
    usable_fraction: float = 0.9,
) -> tuple[list[list[ModelSpec]], list[ModelSpec]]:
    """Greedy memory-constrained placement over a homogeneous pool.

    Returns (per-GPU model lists, unplaced models).  Models are placed
    first-fit in popularity order (callers pass them most-popular first,
    matching how an optimizer would prioritize).  Kept as a thin wrapper
    over :class:`~repro.policy.MemoryConstrainedPlacement` for callers
    that predate the policy layer.
    """
    policy = MemoryConstrainedPlacement(
        min_kv_bytes=min_kv_bytes, usable_fraction=usable_fraction
    )
    return policy.plan(models, [gpu_spec] * gpu_count)


class SharedGpuInstance(BatcherInstanceBase):
    """One GPU serving a fixed set of colocated models.

    Round-robins between colocated models' engines at a fine temporal
    granularity with zero switching cost.  With a single model this is
    exactly a dedicated vLLM instance (the strawman of §3).
    """

    def __init__(
        self,
        env: Environment,
        gpu_spec: GpuSpec,
        models: list[ModelSpec],
        on_finished,
        tp: int = 1,
        max_batch_size: int = 32,
        name: str = "mux",
    ):
        super().__init__(env, name, on_finished)
        self.gpu_spec = gpu_spec
        self.tp = tp
        self.models = {spec.name: spec for spec in models}
        self._latency = {
            spec.name: LatencyModel(spec, gpu_spec, tp=tp) for spec in models
        }
        weight_total = sum(spec.weight_bytes // tp for spec in models)
        kv_total = int(gpu_spec.vram_bytes * 0.9) - weight_total
        if kv_total <= 0 and models:
            raise MemoryError(f"{name}: colocated weights exceed VRAM")
        per_model_kv = kv_total // max(1, len(models))
        self.batchers = {
            spec.name: ContinuousBatcher(
                BlockManager(per_model_kv, spec, tp=tp),
                BatchingPolicy(max_batch_size=max_batch_size),
            )
            for spec in models
        }
        self._order = list(self.batchers)
        self.busy_time = 0.0
        self._start()

    # -- dispatch ----------------------------------------------------------
    def hosts(self, model: str) -> bool:
        """True if this GPU colocates ``model``."""
        return model in self.models

    def enqueue(self, request: Request) -> None:
        """Queue a request on its model's engine."""
        self.batchers[request.model].enqueue(request)
        self._kick()

    @property
    def active(self) -> bool:
        return any(batcher.has_work for batcher in self.batchers.values())

    def load(self) -> int:
        """Queued + running requests (for least-loaded dispatch)."""
        return sum(
            len(batcher.waiting) + len(batcher.running)
            for batcher in self.batchers.values()
        )

    # -- main loop -----------------------------------------------------------
    def _step(self) -> Generator:
        for model in self._order:
            batcher = self.batchers[model]
            if not batcher.has_work:
                continue
            yield from self._iteration(model, batcher)

    def _iteration(self, model: str, batcher: ContinuousBatcher) -> Generator:
        latency = self._latency[model]
        admitted = batcher.admit_prefills()
        if admitted:
            self._mark_prefilling(admitted)
            duration = latency.prefill_time(
                [request.input_tokens for request in admitted]
            )
            yield self.env.timeout(duration)
            self.busy_time += duration
            self._mark_prefilled(batcher, admitted)
            return
        running = batcher.decode_batch()
        if not running:
            return
        step = latency.decode_step_time(
            len(running), sum(r.context_tokens for r in running)
        )
        steps = max(1, min(MUX_CHUNK_STEPS, min(r.remaining_tokens for r in running)))
        chunk_start = self.env.now
        yield self.env.timeout(steps * step)
        self.busy_time += steps * step
        self._account_decode_chunk(batcher, running, chunk_start, step, steps)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of wall time this GPU ran token generation."""
        elapsed = self.env.now if elapsed is None else elapsed
        return 0.0 if elapsed <= 0 else min(1.0, self.busy_time / elapsed)


class MuxServe(BaselineServer):
    """Static multiplexing across a GPU pool."""

    label = "MuxServe"
    default_policies = "muxserve"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        tp: int = 1,
        slo: SloSpec = DEFAULT_SLO,
        max_batch_size: int = 32,
        obs: Optional[ObsConfig | Observability] = None,
        policies=None,
    ):
        super().__init__(env, slo, obs=obs, policies=policies)
        self.cluster = cluster
        self.tp = tp
        self.max_batch_size = max_batch_size
        self.instances: list[SharedGpuInstance] = []
        self.unplaced: set[str] = set()
        self.gpu_count = len(cluster.gpus)

    def prepare(self, trace: Trace) -> None:
        """Run the bundle's placement policy over the catalog's models,
        busiest first (by per-model ``rates``; catalog order without)."""
        rates = dict(zip((spec.name for spec in trace.models), trace.rates or ()))
        models = sorted(
            trace.models, key=lambda spec: rates.get(spec.name, 0.0), reverse=True
        )
        slots = len(self.cluster.gpus) // self.tp
        slot_specs = [self.cluster.gpus[index * self.tp].spec for index in range(slots)]
        placements, unplaced = self.policies.placement.plan(
            models, slot_specs, tracer=self.obs.tracer
        )
        self.unplaced = {spec.name for spec in unplaced}
        self.instances = [
            SharedGpuInstance(
                self.env,
                slot_specs[index],
                placed,
                self.note_finished,
                tp=self.tp,
                max_batch_size=self.max_batch_size,
                name=f"mux{index}",
            )
            for index, placed in enumerate(placements)
            if placed
        ]

    @property
    def placed_model_count(self) -> int:
        return sum(len(instance.models) for instance in self.instances)

    def dispatch(self, request: Request) -> None:
        # Unplaced models were already shed at admission by the bundle's
        # PlacedModelsAdmission; route among the hosting instances.
        target = self.policies.dispatch.place(self, request)
        if target is None:
            self.note_rejected(request)
            return
        target.enqueue(request)


class DedicatedServing(BaselineServer):
    """The §3 strawman: one dedicated instance per model, no sharing."""

    label = "Dedicated"
    default_policies = "muxserve"

    def __init__(
        self,
        env: Environment,
        gpu_spec: GpuSpec,
        tp: int = 1,
        slo: SloSpec = DEFAULT_SLO,
        max_batch_size: int = 32,
        obs: Optional[ObsConfig | Observability] = None,
        policies=None,
    ):
        super().__init__(env, slo, obs=obs, policies=policies)
        self.gpu_spec = gpu_spec
        self.tp = tp
        self.max_batch_size = max_batch_size
        self.instances: dict[str, SharedGpuInstance] = {}

    def prepare(self, trace: Trace) -> None:
        for spec in trace.models:
            self.instances[spec.name] = SharedGpuInstance(
                self.env,
                self.gpu_spec,
                [spec],
                self.note_finished,
                tp=self.tp,
                max_batch_size=self.max_batch_size,
                name=f"dedicated:{spec.name}",
            )
        self.gpu_count = len(self.instances) * self.tp

    def dispatch(self, request: Request) -> None:
        self.instances[request.model].enqueue(request)
