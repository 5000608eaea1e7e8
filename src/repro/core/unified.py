"""Unified (non-disaggregated) token-level scheduling (§4.1, Figure 6).

Before settling on prefill/decoding disaggregation, the paper examines
unified policies that run both phases on every GPU and finds them
workload-sensitive: *prefill-first* preempts decoding whenever prompts
arrive (TBT suffers under bursts, Figure 6(a)); *decoding-first* drains
running outputs before queued prompts (TTFT suffers under long outputs,
Figure 6(b)).

These instances exist so the Figure 6 comparison runs real systems:
token-level auto-scaling with real engines and switch costs, just
without the disaggregated partitions and phase-specialized schedulers.
KV stays GPU-resident here (the unified GPU cache is sized for the
illustration scenarios); the full swap machinery is exercised by the
disaggregated instances.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..engine.engine import AegaeonEngine, EngineConfig
from ..engine.request import Phase, Request, Stretch, commit_stretch
from ..hardware.cluster import Cluster
from ..memory.model_cache import HostModelCache
from ..memory.slab import SlabAllocator
from ..models.catalog import ModelSpec
from ..models.kv import kv_shape
from ..policy.base import PolicyBundle
from ..sim import Environment
from ..transfer.kv_transfer import RequestKv
from ..workload.stream import RequestStream
from .batcher import BatcherInstanceBase
from .serving import ServingSystemBase, SystemConfig

__all__ = ["UnifiedInstance", "UnifiedServer", "PREFILL_FIRST", "DECODE_FIRST"]

GiB = 1024**3

PREFILL_FIRST = "prefill_first"
DECODE_FIRST = "decode_first"

_CHUNK_STEPS = 8
# Host checkpoint cache of the pool.
MODEL_CACHE_BYTES = 640 * GiB


class UnifiedInstance(BatcherInstanceBase):
    """One engine running prefill and decoding for many models."""

    def __init__(
        self,
        env: Environment,
        engine: AegaeonEngine,
        policy: str,
        on_finished,
        name: str = "unified",
    ):
        if policy not in (PREFILL_FIRST, DECODE_FIRST):
            raise ValueError(f"unknown unified policy {policy!r}")
        super().__init__(env, name, on_finished)
        self.engine = engine
        self.policy = policy
        self.waiting: list[Request] = []  # prefill queue, FCFS
        self.decoding: list[Request] = []  # running decodes, mixed models
        self._start()

    # -- dispatch ----------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Queue one request for prefill on this instance."""
        self.waiting.append(request)
        self._kick()

    @property
    def active(self) -> bool:
        return bool(self.waiting or self.decoding)

    def load(self) -> int:
        """Queued plus running requests (for least-loaded dispatch)."""
        return len(self.waiting) + len(self.decoding)

    # -- main loop ------------------------------------------------------------
    def _step(self) -> Generator:
        if self.policy == PREFILL_FIRST:
            prefill = bool(self.waiting)
        else:  # decode-first
            prefill = not self.decoding
        if prefill:
            yield from self._prefill_next()
        else:
            yield from self._decode_some()

    # -- phases -----------------------------------------------------------------
    def _ensure_model(self, spec: ModelSpec) -> Generator:
        if (
            self.engine.current_model is None
            or self.engine.current_model.name != spec.name
        ):
            yield from self.engine.scale_to(spec)

    def _prefill_next(self) -> Generator:
        request = self.waiting.pop(0)
        yield from self._ensure_model(request.spec)
        request.kv = RequestKv(
            request_id=request.request_id,
            shape=kv_shape(request.spec, self.engine.config.tp),
            tokens=request.input_tokens,
        )
        self.engine.kv.alloc_gpu(request.kv)
        request.phase = Phase.PREFILLING
        request.prefill_start = self.env.now
        yield from self.engine.prefill(request.spec, [request.input_tokens])
        request.prefill_end = self.env.now
        request.record_tokens([self.env.now])
        request.phase = Phase.DECODING
        request.decode_enqueue = self.env.now
        if request.finished:
            self._finish(request)
        else:
            self.decoding.append(request)

    def _decode_some(self) -> Generator:
        """Decode one chunk for the next model's batch (round-robin)."""
        spec = self._next_decode_model()
        if spec is None:
            return
        yield from self._ensure_model(spec)
        batch = [r for r in self.decoding if r.spec.name == spec.name]
        step = self.engine.decode_step_time(
            spec, len(batch), sum(r.context_tokens for r in batch)
        )
        steps = max(1, min(_CHUNK_STEPS, min(r.remaining_tokens for r in batch)))
        chunk_start = self.env.now
        yield from self.engine.decode_for(spec, steps * step)
        commit_stretch(batch, Stretch((chunk_start, step, steps)))
        # Grow each request's KV, as DecodeRun.land does:
        # RequestKv.grow runs only when a block boundary is crossed.
        gpu_cache = self.engine.gpu_kv_cache
        for request in batch:
            kv = request.kv
            tokens = kv.tokens + steps
            if tokens <= kv.capacity_tokens:
                kv.tokens = tokens
            else:
                kv.grow(steps, gpu_cache)
            if request.generated_tokens >= request.output_tokens:
                self.decoding.remove(request)
                self._finish(request)

    def _next_decode_model(self) -> Optional[ModelSpec]:
        if not self.decoding:
            return None
        current = self.engine.current_model
        if current is not None and any(
            r.spec.name == current.name for r in self.decoding
        ):
            # Finish the resident model's chunk before switching; the
            # round-robin advances when it drains or a prefill switches.
            return next(
                r.spec for r in self.decoding if r.spec.name == current.name
            )
        return self.decoding[0].spec

    def _finish(self, request: Request) -> None:
        if request.kv is not None and request.kv.location == "gpu":
            self.engine.kv.free_gpu(request.kv)
        request.complete(self.env.now)
        self.on_finished(request)


class UnifiedServer(ServingSystemBase):
    """A pool of unified token-level instances (the Figure 6 foils).

    ``policy`` (:data:`PREFILL_FIRST` or :data:`DECODE_FIRST`) is fixed
    by the system name, ``unified-prefill-first`` or
    ``unified-decode-first``, and picks the default bundle.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: SystemConfig = SystemConfig(),
        policies: Optional[PolicyBundle | str] = None,
        policy: str = PREFILL_FIRST,
    ):
        # Instance attr shadows the class default before the base class
        # resolves the bundle.
        self.default_policies = f"unified-{policy.replace('_', '-')}"
        super().__init__(env, cluster, config, policies)
        self.label = f"unified-{policy}"
        self.model_cache = HostModelCache(
            MODEL_CACHE_BYTES, name="model_cache", obs=self.obs
        )
        cpu_kv = SlabAllocator(
            64 * GiB, 256 * 1024**2, name="cpu_kv", obs=self.obs
        )
        self.instances = []
        for index, gpu in enumerate(cluster.gpus):
            engine = AegaeonEngine(
                env,
                cluster.node_of(gpu),
                [gpu],
                self.model_cache,
                cpu_kv,
                config=EngineConfig(prefetch=False),
                name=f"unified{index}",
                pre_initialized=True,
                obs=self.obs,
            )
            self.instances.append(
                UnifiedInstance(env, engine, policy, self.note_finished, name=f"unified{index}")
            )
        self.gpu_count = len(cluster.gpus)

    def prepare(self, workload: RequestStream) -> None:
        """Warm the host model cache with every model of the stream."""
        for spec in workload.models:
            self.model_cache.insert(spec.name, spec.weight_bytes)

    def dispatch(self, request: Request) -> None:
        """Model affinity, then least loaded (the bundle's dispatch policy)."""
        target = self.policies.dispatch.place(self, request)
        target.enqueue(request)

    def engines(self) -> list[AegaeonEngine]:
        """Every per-instance engine (for scaling/transfer stats)."""
        return [instance.engine for instance in self.instances]
