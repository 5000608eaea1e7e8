"""ServerlessLLM baseline: request-level auto-scaling (§2.3, §7.1).

ServerlessLLM scales models from host-memory checkpoints with a fast
loader (the paper rates its loading "comparable" to Aegaeon's), but it
schedules at the **request** granularity: an instance switches models
only when its running requests complete.  Under aggressive pooling this
head-of-line blocking is what caps its SLO attainment (Figure 2(a),
§3.1), so our model deliberately grants it Aegaeon-grade switch costs
and conventional vLLM-style continuous batching, isolating scheduling
granularity as the differentiator — exactly the paper's comparison.

``ServerlessLLMPlus`` (§7.1) extends it with oracle Shortest-Job-First
ordering over the waiting queue.  Both the queue order and the routing
rule come from the system's policy bundle
(:class:`~repro.policy.RequestLevelScaling`,
:class:`~repro.policy.AffinityBacklogDispatch`).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.batcher import BatcherInstanceBase
from ..core.serving import ServingSystemBase, SystemConfig
from ..engine.batching import MAX_BATCH_SIZE, BatchingPolicy, ContinuousBatcher
from ..engine.block_manager import BlockManager
from ..engine.engine import AegaeonEngine, EngineConfig
from ..engine.request import Request
from ..hardware.cluster import Cluster
from ..memory.model_cache import HostModelCache
from ..memory.slab import SlabAllocator
from ..models.catalog import ModelSpec
from ..policy.base import PolicyBundle
from ..sim import Environment
from ..workload.stream import RequestStream

__all__ = ["ServerlessLLM", "ServerlessLLMPlus"]

GiB = 1024**3

# Decode chunking, mirroring the Aegaeon instances.
DECODE_CHUNK_STEPS = 16
# Host checkpoint cache: two nodes x 640 GB, as Aegaeon's.
MODEL_CACHE_BYTES = 1280 * GiB


class _ServerlessInstance(BatcherInstanceBase):
    """One GPU (or TP group) running whole requests for one model at a time."""

    def __init__(
        self,
        env: Environment,
        engine: AegaeonEngine,
        server: "ServerlessLLM",
        name: str,
    ):
        super().__init__(env, name, server.note_finished)
        self.engine = engine
        self.server = server
        self.waiting: list[Request] = []
        self.batcher: Optional[ContinuousBatcher] = None
        self._start()

    # -- dispatch interface ------------------------------------------------
    @property
    def current_model(self) -> Optional[ModelSpec]:
        return self.engine.current_model

    @property
    def active(self) -> bool:
        return bool(self.waiting) or (
            self.batcher is not None and self.batcher.has_work
        )

    def estimated_backlog(self) -> float:
        """Rough seconds of queued work (for least-loaded routing).

        Each waiting request's estimated service time (Eqs. 5-6) plus
        each running request's remaining tokens at the current batch's
        decode step time (Eq. 6), summed in queue order.
        """
        backlog = 0.0
        for request in self.waiting:
            latency = self.engine.latency_model(request.spec)
            backlog += latency.estimate_service_time(
                request.input_tokens, request.output_tokens
            )
        if self.batcher is not None and self.batcher.running:
            running = self.batcher.running
            size = len(running)
            for request in running:
                latency = self.engine.latency_model(request.spec)
                backlog += request.remaining_tokens * latency.decode_step_time(
                    size, request.context_tokens
                )
        return backlog

    def enqueue(self, request: Request) -> None:
        self.waiting.append(request)
        self._kick()

    # -- main loop ----------------------------------------------------------
    def _step(self) -> Generator:
        if self.batcher is not None and self.batcher.has_work:
            yield from self._serve_current()
            return
        # Request-level scaling point: running set has drained.
        target = self._pick_next_model()
        if target is not None:
            yield from self._switch_to(target)

    def _pick_next_model(self) -> Optional[ModelSpec]:
        """Next model by queue policy (FCFS base, SJF in the + variant)."""
        if not self.waiting:
            return None
        self.server.policies.scaling.order_queue(self.waiting, self.engine)
        return self.waiting[0].spec

    def _switch_to(self, spec: ModelSpec) -> Generator:
        yield from self.engine.scale_to(spec)
        pool_bytes = self.engine.gpu_kv_cache.region_bytes
        self.batcher = ContinuousBatcher(
            BlockManager(pool_bytes, spec),
            BatchingPolicy(max_batch_size=MAX_BATCH_SIZE),
        )
        self._drain_matching(spec)

    def _drain_matching(self, spec: ModelSpec) -> None:
        """Move same-model waiting requests into the engine's queue."""
        matching = [r for r in self.waiting if r.spec.name == spec.name]
        for request in matching:
            self.waiting.remove(request)
            self.batcher.enqueue(request)

    def _serve_current(self) -> Generator:
        spec = self.engine.current_model
        # Continuous batching: newly arrived same-model requests join.
        self._drain_matching(spec)
        admitted = self.batcher.admit_prefills()
        if admitted:
            yield from self._prefill(spec, admitted)
            return
        if self.batcher.running:
            yield from self._decode_chunk(spec)
            return
        # Nothing admissible (pool full with zero running cannot happen;
        # waiting holds only other models) — let the loop switch.
        self.batcher = None if not self.batcher.has_work else self.batcher

    def _prefill(self, spec: ModelSpec, admitted: list[Request]) -> Generator:
        self._mark_prefilling(admitted)
        yield from self.engine.prefill(
            spec, [request.input_tokens for request in admitted]
        )
        self._mark_prefilled(self.batcher, admitted)

    def _decode_chunk(self, spec: ModelSpec) -> Generator:
        running = self.batcher.decode_batch()
        step = self.engine.decode_step_time(
            spec, len(running), sum(r.context_tokens for r in running)
        )
        steps = max(1, min(
            DECODE_CHUNK_STEPS, min(r.remaining_tokens for r in running)
        ))
        chunk_start = self.env.now
        yield from self.engine.decode_for(spec, steps * step)
        self._account_decode_chunk(self.batcher, running, chunk_start, step, steps)


class ServerlessLLM(ServingSystemBase):
    """Request-level auto-scaling across a GPU pool, one instance per GPU."""

    label = "ServerlessLLM"
    default_policies = "serverless-llm"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: SystemConfig = SystemConfig(),
        policies: Optional[PolicyBundle | str] = None,
    ):
        super().__init__(env, cluster, config, policies)
        self.model_cache = HostModelCache(
            MODEL_CACHE_BYTES, name="model_cache", obs=self.obs
        )
        # ServerlessLLM holds no cross-model unified KV cache; engines
        # get a token-sized CPU pool purely to satisfy the engine API.
        cpu_kv = SlabAllocator(
            region_bytes=GiB, slab_bytes=64 * 1024**2, name="cpu_kv", obs=self.obs
        )
        vram = cluster.gpus[0].spec.vram_bytes
        weight_buffer = min(30 * GiB, int(vram * 0.9) - 8 * GiB)
        engine_config = EngineConfig(
            prefetch=False,
            fine_grained_sync=False,
            weight_buffer_bytes=weight_buffer,
        )
        self.instances = []
        for index, gpu in enumerate(cluster.gpus):
            engine = AegaeonEngine(
                env,
                cluster.node_of(gpu),
                [gpu],
                self.model_cache,
                cpu_kv,
                config=engine_config,
                name=f"sllm{index}",
                pre_initialized=True,
                obs=self.obs,
            )
            self.instances.append(
                _ServerlessInstance(env, engine, self, name=f"sllm{index}")
            )
        self.gpu_count = len(cluster.gpus)

    # -- policy hooks ------------------------------------------------------
    def admission_pressure(self) -> float:
        """Least estimated backlog across the pool, in seconds of work."""
        if not self.instances:
            return float("inf")
        return min(instance.estimated_backlog() for instance in self.instances)

    # -- dispatch ----------------------------------------------------------
    def dispatch(self, request: Request) -> None:
        """Affinity → idle → least backlog (the bundle's dispatch policy)."""
        target = self.policies.dispatch.place(self, request)
        target.enqueue(request)

    def prepare(self, workload: RequestStream) -> None:
        """Warm the host model cache with every model of the stream."""
        for spec in workload.models:
            self.model_cache.insert(spec.name, spec.weight_bytes)

    def engines(self) -> list[AegaeonEngine]:
        """Every per-instance engine (for scaling/transfer stats)."""
        return [instance.engine for instance in self.instances]


class ServerlessLLMPlus(ServerlessLLM):
    """ServerlessLLM with oracle Shortest-Job-First queueing (§7.1)."""

    label = "ServerlessLLM+"
    default_policies = "serverless-llm+"
