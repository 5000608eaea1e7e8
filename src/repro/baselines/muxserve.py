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
from ..core.serving import ServingSystemBase, SystemConfig
from ..engine.batching import MAX_BATCH_SIZE, BatchingPolicy, ContinuousBatcher
from ..engine.block_manager import BlockManager
from ..engine.request import Request
from ..hardware.cluster import Cluster
from ..hardware.gpu import GpuSpec
from ..models.catalog import ModelSpec
from ..models.latency import LatencyModel
from ..policy.base import PolicyBundle
from ..policy.placement import MARKET_HOURLY_USD, USABLE_VRAM_FRACTION
from ..sim import Environment
from ..workload.stream import RequestStream

__all__ = ["MuxServe", "DedicatedServing", "SharedGpuInstance"]

# Interleave granularity between colocated models (fine-grained
# temporal multiplexing: a few decode steps per turn, no switch cost).
MUX_CHUNK_STEPS = 4


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
        name: str = "mux",
    ):
        super().__init__(env, name, on_finished)
        self.gpu_spec = gpu_spec
        self.models = {spec.name: spec for spec in models}
        self._latency = {
            spec.name: LatencyModel(spec, gpu_spec) for spec in models
        }
        weight_total = sum(spec.weight_bytes for spec in models)
        kv_total = int(gpu_spec.vram_bytes * USABLE_VRAM_FRACTION) - weight_total
        if kv_total <= 0 and models:
            raise MemoryError(f"{name}: colocated weights exceed VRAM")
        per_model_kv = kv_total // max(1, len(models))
        self.batchers = {
            spec.name: ContinuousBatcher(
                BlockManager(per_model_kv, spec),
                BatchingPolicy(max_batch_size=MAX_BATCH_SIZE),
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


class MuxServe(ServingSystemBase):
    """Static multiplexing across a GPU pool, one instance per GPU."""

    label = "MuxServe"
    default_policies = "muxserve"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: SystemConfig = SystemConfig(),
        policies: Optional[PolicyBundle | str] = None,
    ):
        super().__init__(env, cluster, config, policies)
        self.instances: list[SharedGpuInstance] = []
        self.unplaced: set[str] = set()
        self.gpu_count = len(cluster.gpus)

    def prepare(self, workload: RequestStream) -> None:
        """Run the bundle's placement policy over the catalog's models,
        busiest first (by per-model ``rates``; catalog order without)."""
        rates = dict(zip((spec.name for spec in workload.models), workload.rates or ()))
        models = sorted(
            workload.models, key=lambda spec: rates.get(spec.name, 0.0), reverse=True
        )
        slot_specs = [gpu.spec for gpu in self.cluster.gpus]
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
                name=f"mux{index}",
            )
            for index, placed in enumerate(placements)
            if placed
        ]

    @property
    def placed_model_count(self) -> int:
        return sum(len(instance.models) for instance in self.instances)

    def dispatch(self, request: Request) -> None:
        """Route among the instances hosting the request's model.

        Unplaced models were already shed at admission by the bundle's
        PlacedModelsAdmission.
        """
        target = self.policies.dispatch.place(self, request)
        if target is None:
            self.note_rejected(request)
            return
        target.enqueue(request)


class DedicatedServing(ServingSystemBase):
    """The §3 strawman: one dedicated GPU per model, no sharing."""

    label = "Dedicated"
    default_policies = "muxserve"

    def __init__(self, env: Environment, gpu_spec: GpuSpec):
        # No pool to build from: prepare() sizes one GPU per model.
        super().__init__(env, None, SystemConfig())
        self.gpu_spec = gpu_spec
        self.instances: dict[str, SharedGpuInstance] = {}

    def prepare(self, workload: RequestStream) -> None:
        """Give every model of the stream its own GPU."""
        for spec in workload.models:
            self.instances[spec.name] = SharedGpuInstance(
                self.env,
                self.gpu_spec,
                [spec],
                self.note_finished,
                name=f"dedicated:{spec.name}",
            )
        self.gpu_count = len(self.instances)

    def dispatch(self, request: Request) -> None:
        """Send the request to its model's dedicated GPU."""
        self.instances[request.model].enqueue(request)

    def hourly_usd(self) -> float:
        """One dedicated GPU per model at the market rate."""
        return MARKET_HOURLY_USD[self.gpu_spec.name] * self.gpu_count
