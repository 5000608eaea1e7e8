"""The Aegaeon serving system (Figure 5), assembled end to end.

:class:`AegaeonServer` wires the whole stack together on a simulated
cluster: per-node host caches, prefill/decoding engines and instances,
the two token-level schedulers, and the proxy layer.  It speaks the same
:class:`~repro.core.serving.ServingSystem` protocol as every baseline —
``serve(workload)`` replays a workload and returns the
:class:`~repro.analysis.metrics.ServingResult` a fleet run returns too,
billed at the market rate of its cluster — and threads one
:class:`~repro.obs.Observability` through every component it builds.

One simplification versus the production deployment: the unified CPU KV
cache and the model cache are cluster-wide objects rather than per-node
(the paper moves KV between nodes through the network via the proxy
tier; collapsing that tier does not change any scheduling decision —
see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.engine import AegaeonEngine, EngineConfig
from ..engine.request import Phase, Request
from ..hardware.cluster import Cluster
from ..memory.model_cache import HostModelCache
from ..memory.slab import SlabAllocator
from typing import Optional

from ..models.catalog import ModelSpec
from ..obs import ObsConfig
from ..policy.base import PolicyBundle
from ..sim import Environment
from ..transfer.kv_transfer import MoveList
from ..workload.stream import RequestStream
from .decode_sched import BatchedDecodeScheduler
from .instance import DecodeInstance, PrefillInstance
from .prefill_sched import GroupedPrefillScheduler
from .serving import ServingSystemBase
from .slo import DEFAULT_SLO, SloSpec

__all__ = ["AegaeonConfig", "AegaeonServer"]

GiB = 1024**3

#: Grace period before a failed instance's orphans are requeued: the
#: timeout half of timeout-and-requeue (the proxy tier would take this
#: long to notice the instance stopped heartbeating).
ORPHAN_REQUEUE_DELAY = 0.01


@dataclass(frozen=True)
class AegaeonConfig:
    """Deployment shape, engine features, and observability for one pool."""

    prefill_instances: int = 6
    decode_instances: int = 10
    engine: EngineConfig = EngineConfig()
    slo: SloSpec = DEFAULT_SLO
    model_cache_bytes: int = 1280 * GiB  # two nodes x 640 GB
    cpu_kv_cache_bytes: int = 640 * GiB  # two nodes x 320 GB
    cpu_slab_bytes: int = 256 * 1024**2
    drain_grace: float = 300.0  # extra sim time after the last arrival
    cluster: str = "testbed"  # preset used by build_system()
    obs: ObsConfig = field(default_factory=ObsConfig)
    policies: Optional[str] = None  # bundle name; None = "aegaeon"

    @property
    def gpus_needed(self) -> int:
        """GPUs this deployment shape occupies."""
        return (self.prefill_instances + self.decode_instances) * self.engine.tp


class AegaeonServer(ServingSystemBase):
    """Aegaeon on a cluster: instances, schedulers, proxy."""

    label = "Aegaeon"
    default_policies = "aegaeon"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: AegaeonConfig = AegaeonConfig(),
        policies: Optional[PolicyBundle | str] = None,
    ):
        if config.gpus_needed > len(cluster.gpus):
            raise ValueError(
                f"config needs {config.gpus_needed} GPUs, cluster has {len(cluster.gpus)}"
            )
        super().__init__(env, cluster, config, policies)
        self.gpu_count = config.gpus_needed
        self._warm_on_prepare = True
        self.model_cache = HostModelCache(
            config.model_cache_bytes, name="model_cache", obs=self.obs
        )
        self.cpu_kv_cache = SlabAllocator(
            config.cpu_kv_cache_bytes, config.cpu_slab_bytes,
            name="cpu_kv", obs=self.obs,
        )
        self.move_list = MoveList()

        tp = config.engine.tp
        bundle = self.policies
        tunables = bundle.tunables
        # GPU → pool assignment: contiguous TP groups, prefill first.
        gpus = cluster.gpus
        groups = [
            gpus[index * tp : (index + 1) * tp]
            for index in range(config.prefill_instances + config.decode_instances)
        ]
        prefill_groups = groups[: config.prefill_instances]
        decode_groups = groups[config.prefill_instances :]
        self.prefill_instances: list[PrefillInstance] = []
        self.decode_instances: list[DecodeInstance] = []
        for index, group in enumerate(prefill_groups):
            engine = AegaeonEngine(
                env,
                cluster.node_of(group[0]),
                group,
                self.model_cache,
                self.cpu_kv_cache,
                move_list=self.move_list,
                config=config.engine,
                name=f"prefill{index}",
                pre_initialized=True,
                obs=self.obs,
            )
            self.prefill_instances.append(
                PrefillInstance(
                    env, engine, self._on_prefilled, name=f"prefill{index}",
                    on_failed=self.note_failed, obs=self.obs,
                    scaling=bundle.scaling,
                )
            )
        for index, group in enumerate(decode_groups):
            engine = AegaeonEngine(
                env,
                cluster.node_of(group[0]),
                group,
                self.model_cache,
                self.cpu_kv_cache,
                move_list=self.move_list,
                config=config.engine,
                name=f"decode{index}",
                pre_initialized=True,
                obs=self.obs,
            )
            self.decode_instances.append(
                DecodeInstance(
                    env,
                    engine,
                    config.slo,
                    self.note_finished,
                    name=f"decode{index}",
                    on_failed=self.note_failed,
                    obs=self.obs,
                    tunables=tunables,
                    scaling=bundle.scaling,
                )
            )
        # The schedulers copy the pool lists into their own dispatch
        # views: a failed instance leaves the dispatch view but stays in
        # the pool lists, so engines()/statistics keep covering it.
        self.prefill_scheduler = GroupedPrefillScheduler(
            self.prefill_instances,
            max_group_size=tunables.max_prefill_group,
            obs=self.obs,
            policy=bundle.dispatch,
        )
        self.decode_scheduler = BatchedDecodeScheduler(
            self.decode_instances, obs=self.obs, policy=bundle.dispatch
        )
        self.instance_failures = 0
        self.orphans_requeued = 0
        scope = self.obs.scoped("server")
        self._failures_counter = scope.counter("instance_failures")
        self._requeue_counter = scope.counter("orphans_requeued")

    # -- plumbing -----------------------------------------------------------
    def admission_pressure(self) -> float:
        """Least-loaded prefill backlog, in seconds of estimated work.

        This is what a fresh arrival would wait before its prefill even
        starts; SLO-aware admission compares it against the TTFT budget.
        An empty dispatch view (every prefill instance failed) reads as
        infinite pressure.
        """
        scheduler = self.prefill_scheduler
        if not scheduler.instances:
            return float("inf")
        return min(
            scheduler.estimate_load(instance) for instance in scheduler.instances
        )

    def dispatch(self, request: Request) -> None:
        """Route one arriving request into the prefill phase."""
        try:
            self.prefill_scheduler.dispatch(request)
        except LookupError:
            # Every prefill instance is gone: shed load at admission.
            self.note_rejected(request)

    def _on_prefilled(self, request: Request) -> None:
        if request.phase is Phase.FINISHED:
            # Its only output token was the first: done at prefill.
            self.note_finished(request)
            return
        try:
            self.decode_scheduler.dispatch(request)
        except LookupError:
            # No decode pool left; the prefilled KV cannot be consumed.
            engine = self.prefill_instances[0].engine if self.prefill_instances else None
            if request.kv is not None and engine is not None:
                engine.kv.abort_request(request.kv)
                request.kv = None
            self.note_failed(request)

    def engines(self) -> list[AegaeonEngine]:
        """Every engine in the pool, prefill partition first."""
        return [
            instance.engine
            for instance in [*self.prefill_instances, *self.decode_instances]
        ]

    # -- degraded mode -------------------------------------------------------
    def fail_instance(self, name: str) -> None:
        """Take one named instance (its TP group of GPUs) offline.

        The instance leaves its scheduler's dispatch list immediately;
        its orphaned requests are requeued after a short grace period
        (timeout-and-requeue).  The instance object stays in the pool
        lists so per-engine statistics survive the failure.

        Raises ``KeyError`` for an unknown instance name.
        """
        for instance in [*self.prefill_instances, *self.decode_instances]:
            if instance.name == name:
                break
        else:
            raise KeyError(f"no instance named {name!r}")
        orphans = instance.fail()
        if instance in self.prefill_scheduler.instances:
            self.prefill_scheduler.instances.remove(instance)
        if instance in self.decode_scheduler.instances:
            self.decode_scheduler.instances.remove(instance)
        self.instance_failures += 1
        self._failures_counter.inc()
        self.obs.tracer.instant(
            "instance_failure", cat="chaos", track="server",
            instance=name, orphans=len(orphans),
        )
        if orphans:
            self.env.process(self._requeue_orphans(instance, orphans))

    def _requeue_orphans(self, instance, orphans: list[Request]):
        """Process: reschedule a dead instance's requests after a grace."""
        yield self.env.timeout(ORPHAN_REQUEUE_DELAY)
        for request in orphans:
            self._reschedule(instance, request)

    def _reschedule(self, instance, request: Request) -> None:
        """Route one orphaned request back into the pipeline.

        A request whose KV sits in the shared CPU cache rejoins decoding
        directly; anything else lost its KV with the device and restarts
        from prefill.
        """
        kv = request.kv
        if kv is not None and kv.location == "cpu":
            try:
                self.decode_scheduler.dispatch(request)
            except LookupError:
                instance.engine.kv.abort_request(kv)
                request.kv = None
                self.note_failed(request)
                return
            self.orphans_requeued += 1
            self._requeue_counter.inc()
            return
        if kv is not None:
            instance.engine.kv.abort_request(kv)
            request.kv = None
        request.reset_progress()
        request.phase = Phase.QUEUED
        request.prefill_start = None
        request.prefill_end = None
        request.decode_enqueue = None
        try:
            self.prefill_scheduler.dispatch(request)
        except LookupError:
            self.note_failed(request)
            return
        self.orphans_requeued += 1
        self._requeue_counter.inc()

    # -- operation -----------------------------------------------------------
    def warm(self, models: list[ModelSpec]) -> None:
        """Pre-populate the host model cache (the deployment steady state)."""
        tp = self.config.engine.tp
        for spec in models:
            self.model_cache.insert(spec.name, spec.weight_bytes // tp)

    def prepare(self, workload: RequestStream) -> None:
        """Warm the model cache unless ``serve(..., warm=False)`` asked not to."""
        if self._warm_on_prepare:
            self.warm(list(workload.models))

    def serve(
        self, workload: RequestStream, warm: bool = True, until: float | None = None
    ) -> "ServingResult":
        """Replay ``workload`` to completion (or the drain deadline)."""
        self._warm_on_prepare = warm
        return super().serve(workload, until=until)

    # -- variants -----------------------------------------------------------
    @classmethod
    def paper_testbed(cls, env: Environment) -> "AegaeonServer":
        """The §7.2 configuration: 16 H800s, 6 prefill + 10 decode."""
        return cls(env, Cluster.testbed(env), AegaeonConfig())

    @classmethod
    def a10_testbed(cls, env: Environment, slo: SloSpec = DEFAULT_SLO) -> "AegaeonServer":
        """The §7.4 low-end setup: 4 A10s, 2 prefill + 2 decode, no prefetch."""
        cluster = Cluster.a10_node(env)
        engine = EngineConfig(
            prefetch=False, weight_buffer_bytes=16 * GiB
        )
        config = AegaeonConfig(
            prefill_instances=2,
            decode_instances=2,
            engine=engine,
            slo=slo,
            model_cache_bytes=256 * GiB,
            cpu_kv_cache_bytes=128 * GiB,
            cluster="a10",
        )
        return cls(env, cluster, config)

    @classmethod
    def tp4_testbed(cls, env: Environment, slo: SloSpec = DEFAULT_SLO) -> "AegaeonServer":
        """The §7.4 large-model setup: 8 H800s, TP=4, 1 prefill + 1 decode."""
        cluster = Cluster.h800_node(env)
        engine = EngineConfig(tp=4, weight_buffer_bytes=48 * GiB)
        config = AegaeonConfig(
            prefill_instances=1, decode_instances=1, engine=engine, slo=slo,
            cluster="h800-node",
        )
        return cls(env, cluster, config)
