"""The fleet control plane: K shards, one clock, one request stream.

A :class:`FleetRunner` drives many independent serving systems — each a
full proxy + schedulers + instance pools built through the existing
:class:`~repro.core.serving.SystemSpec` seam — from a single simulation
:class:`~repro.sim.Environment`.  The catalog is split across shards by
a :class:`~repro.fleet.partition.CatalogPartitioner`; a single pump
process pulls the global :class:`~repro.workload.stream.RequestStream`
lazily and submits each request to the shard owning its model.

Shards run in streaming mode (``retain_requests=False``): every terminal
request is folded into that shard's system's
:class:`~repro.core.stats.ShardStats` and dropped, so a 10^5-request
replay peaks at in-flight concurrency, not trace length.  A run ends in
:func:`~repro.analysis.metrics.collect_result`, the collector ``serve``
ends in too, so a fleet returns the same
:class:`~repro.analysis.metrics.ServingResult`: the per-shard stats
merged into a :class:`~repro.core.stats.FleetRollup` (fleet p50/p99
TTFT/TBT, per-token SLO attainment, and $/token from the market's
hourly GPU prices), the fleet registry's rollup gauges, and each
shard's own metric snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.metrics import ServingResult, collect_result
from ..core.proxy import replay
from ..core.serving import SystemSpec
from ..core.stats import ShardStats
from ..obs import ObsConfig, Observability
from ..sim import Environment
from .controller import ControllerConfig, FleetController
from .partition import CatalogPartitioner

__all__ = [
    "FleetConfig",
    "FleetShard",
    "FleetRunner",
    "build_fleet",
]


@dataclass(frozen=True)
class FleetConfig:
    """Shape of a fleet: how many shards, built from which spec."""

    shards: int = 4
    #: Recipe applied to every shard (cluster preset, policies, chaos).
    spec: SystemSpec = SystemSpec()
    #: False (default) drops requests at disposal — the bounded-memory
    #: mode; True keeps per-shard ledgers for post-hoc inspection.
    retain_requests: bool = False
    #: Fleet-level observability (shards carry their own via the spec).
    #: Defaults to metrics-on: the fleet registry is a handful of gauges,
    #: and the rollup export is the control plane's main product.
    obs: ObsConfig = field(default_factory=ObsConfig.metrics_only)
    #: None (default) runs the PR-6 static fleet; a
    #: :class:`~repro.fleet.controller.ControllerConfig` arms the live
    #: control loop (rebalance / spillover / scaling hints).
    controller: Optional[ControllerConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass
class FleetShard:
    """One shard: a full serving system, whose stats are the shard's."""

    index: int
    name: str
    system: object
    #: Model specs assigned to this shard for the current run.
    models: tuple = ()

    @property
    def stats(self) -> ShardStats:
        """The shard's accounting: its system's fold."""
        return self.system.stats


@dataclass(frozen=True)
class _ShardCatalog:
    """The catalog ``prepare()`` expects: models, horizon, per-model rates."""

    models: tuple
    horizon: float
    rates: tuple


class FleetRunner:
    """Drives K sharded serving systems from one simulation clock."""

    def __init__(self, config: FleetConfig, env: Optional[Environment] = None):
        self.config = config
        self.env = env if env is not None else Environment()
        self.partitioner = CatalogPartitioner(config.shards)
        self.obs = Observability(config.obs, clock=lambda: self.env.now)
        self.submitted = 0
        #: The attached :class:`~repro.core.sessions.SessionCoordinator`,
        #: if any (see :meth:`attach_sessions`).
        self.sessions = None
        self.shards: list[FleetShard] = []
        for index in range(config.shards):
            system = config.spec.build(self.env)
            system.stats.shard = index
            shard = FleetShard(index=index, name=f"shard-{index}", system=system)
            self.shards.append(shard)
            if self.obs.enabled:
                registry = system.registry
                self.obs.metrics.gauge("in_flight", scope=shard.name).set_fn(
                    lambda registry=registry: registry.in_flight
                )
        self.controller: Optional[FleetController] = None
        if config.controller is not None:
            self.controller = FleetController(self, config.controller)
        for shard in self.shards:
            shard.system.configure_streaming(retain_requests=config.retain_requests)
            if self.controller is not None:
                shard.system.spill_filter = self.controller.spill_filter(shard)
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.gauge("shards", scope="fleet").set(config.shards)
            metrics.gauge("submitted", scope="fleet").set_fn(
                lambda: self.submitted
            )
            metrics.gauge("disposed", scope="fleet").set_fn(self._disposed)

    # -- accounting ----------------------------------------------------------
    def _disposed(self) -> int:
        return sum(shard.system.accounted for shard in self.shards)

    @property
    def gpu_count(self) -> int:
        return sum(shard.system.gpu_count for shard in self.shards)

    def _unaccounted(self) -> int:
        """Requests submitted or spilled but not yet disposed.

        Every spill adds one extra terminal disposition beyond the
        pump's count: the spilling shard folds it as ``spilled`` and
        the target shard disposes the re-submission.
        """
        spills = self.controller.spills if self.controller is not None else 0
        return self.submitted + spills - self._disposed()

    def _settled(self) -> bool:
        """Every submission and spill disposed, no session stage pending."""
        return self._unaccounted() <= 0 and (
            self.sessions is None or self.sessions.drained()
        )

    # -- sessions ------------------------------------------------------------
    def submit_routed(self, trace_request, spec) -> None:
        """Submit one request to the shard that owns its model now.

        The pump submits every stream arrival through here, and so does
        an attached session coordinator for its triggered stages: the
        owner is resolved at submission time (honoring live migrations)
        and each request counts toward the total the drain watchdog
        reconciles against.
        """
        shard = self.shards[self.partitioner.shard_of(trace_request.model)]
        shard.system.submit(trace_request, spec)
        self.submitted += 1
        if self.controller is not None:
            self.controller.note_arrival(trace_request.model)

    def attach_sessions(self, coordinator) -> None:
        """Wire a :class:`~repro.core.sessions.SessionCoordinator` in.

        Triggered stages route through :meth:`submit_routed`; every
        shard's ``request_sink`` settles each genuine terminal
        disposition with the coordinator (spills re-submit elsewhere and
        settle there), and the run does not drain while a stage
        submission is pending, so think-time gaps keep it alive.  Must
        precede :meth:`run`.
        """
        if self.submitted:
            raise RuntimeError("attach_sessions must precede run()")
        self.sessions = coordinator
        coordinator.bind(self.submit_routed)
        for shard in self.shards:
            shard.system.request_sink = coordinator.on_settled

    def run(self, stream, until: Optional[float] = None) -> ServingResult:
        """Replay ``stream`` across the fleet to completion or deadline."""
        assignment = self.partitioner.assign(stream.models)
        rate_of = dict(zip((spec.name for spec in stream.models), stream.rates or ()))
        for shard in self.shards:
            shard.models = tuple(assignment[shard.index])
            # Every shard indexes the whole stream's specs: a routing
            # policy may rewrite a request to a model variant that hashed
            # to a different shard, and the rewrite needs the spec here.
            shard.system.register_models(stream.models)
            shard.system.prepare(
                _ShardCatalog(
                    models=shard.models,
                    horizon=stream.horizon,
                    rates=tuple(rate_of.get(spec.name, 0.0) for spec in shard.models),
                )
            )
        if self.controller is not None:
            self.controller.bind_stream(stream)
            self.controller.start()
        if until is None:
            # The deadline serve() sets for the same spec.
            until = stream.horizon + self.config.spec.resolve_config().drain_grace
        drained = replay(
            self.env,
            stream,
            self.submit_routed,
            self._settled,
            until,
            [shard.system.invariant_checker for shard in self.shards],
        )
        return collect_result(
            [shard.system for shard in self.shards],
            self.env,
            stream.horizon,
            drained,
            self._unaccounted(),
            self.submitted,
            obs=self.obs,
            controller=self.controller,
            sessions=self.sessions,
        )


def build_fleet(
    config: Optional[FleetConfig] = None,
    env: Optional[Environment] = None,
) -> FleetRunner:
    """Construct a fleet control plane — sibling of
    :func:`~repro.core.serving.build_system`, one level up."""
    return FleetRunner(config if config is not None else FleetConfig(), env=env)
