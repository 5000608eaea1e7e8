"""The fleet control plane: K shards, one clock, one request stream.

A :class:`FleetRunner` drives many independent serving systems — each a
full proxy + schedulers + instance pools built through the existing
:class:`~repro.core.serving.SystemSpec` seam — from a single simulation
:class:`~repro.sim.Environment`.  The catalog is split across shards by
a :class:`~repro.fleet.partition.CatalogPartitioner`; a single pump
process pulls the global :class:`~repro.workload.stream.RequestStream`
lazily and submits each request to the shard owning its model.

Shards run in streaming mode (``retain_requests=False``): every terminal
request is folded into that shard's
:class:`~repro.fleet.rollup.ShardStats` and dropped, so a 10^5-request
replay peaks at in-flight concurrency, not trace length.  The per-shard
stats merge into a :class:`~repro.fleet.rollup.FleetRollup` — fleet
p50/p99 TTFT/TBT, per-token SLO attainment, and $/token from the
market's hourly GPU prices — exported through ``repro.obs`` alongside
each shard's own metric snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..core.proxy import replay
from ..core.serving import SystemSpec
from ..envkeys import warn_unknown_env_keys
from ..obs import ObsConfig, Observability
from ..policy.placement import MARKET_HOURLY_USD
from ..sim import Environment
from .controller import ControllerConfig, FleetController
from .partition import CatalogPartitioner
from .rollup import FleetRollup, ShardStats

__all__ = [
    "FleetConfig",
    "FleetShard",
    "FleetResult",
    "FleetRunner",
    "build_fleet",
]


@dataclass(frozen=True)
class FleetConfig:
    """Shape of a fleet: how many shards, built from which spec."""

    shards: int = 4
    #: Recipe applied to every shard (cluster preset, policies, chaos).
    spec: SystemSpec = SystemSpec()
    #: Consistent-hash ring resolution (vnodes per shard).
    virtual_nodes: int = 64
    salt: str = "aegaeon-fleet"
    #: False (default) drops requests at disposal — the bounded-memory
    #: mode; True keeps per-shard ledgers for post-hoc inspection.
    retain_requests: bool = False
    #: Fleet-level observability (shards carry their own via the spec).
    #: Defaults to metrics-on: the fleet registry is a handful of gauges,
    #: and the rollup export is the control plane's main product.
    obs: ObsConfig = field(default_factory=ObsConfig.metrics_only)
    drain_grace: float = 300.0
    #: None (default) runs the PR-6 static fleet; a
    #: :class:`~repro.fleet.controller.ControllerConfig` arms the live
    #: control loop (rebalance / spillover / scaling hints).
    controller: Optional[ControllerConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        **overrides,
    ) -> "FleetConfig":
        """A config shaped by ``REPRO_FLEET_*`` (see ``repro.envkeys``).

        Recognized keys: ``REPRO_FLEET_SHARDS``,
        ``REPRO_FLEET_VIRTUAL_NODES``, ``REPRO_FLEET_CONTROLLER``
        (``static``/``forecast``/``off``), ``REPRO_FLEET_TICK``,
        ``REPRO_FLEET_SPILL_HOPS``.  Explicit ``overrides`` win over the
        environment; unrecognized ``REPRO_*`` keys warn with the nearest
        valid key.
        """
        environ = os.environ if environ is None else environ
        warn_unknown_env_keys(environ)
        kwargs: dict[str, object] = {}
        if "REPRO_FLEET_SHARDS" in environ:
            kwargs["shards"] = int(environ["REPRO_FLEET_SHARDS"])
        if "REPRO_FLEET_VIRTUAL_NODES" in environ:
            kwargs["virtual_nodes"] = int(environ["REPRO_FLEET_VIRTUAL_NODES"])
        policy = environ.get("REPRO_FLEET_CONTROLLER", "").strip().lower()
        if policy and policy != "off":
            controller_kwargs: dict[str, object] = {"policy": policy}
            if "REPRO_FLEET_TICK" in environ:
                controller_kwargs["tick"] = float(environ["REPRO_FLEET_TICK"])
            if "REPRO_FLEET_SPILL_HOPS" in environ:
                controller_kwargs["max_spill_hops"] = int(
                    environ["REPRO_FLEET_SPILL_HOPS"]
                )
            kwargs["controller"] = ControllerConfig(**controller_kwargs)
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class FleetShard:
    """One shard: a full serving system plus its streaming stats."""

    index: int
    name: str
    system: object
    stats: ShardStats
    #: Model specs assigned to this shard for the current run.
    models: tuple = ()


@dataclass
class FleetResult:
    """Everything measured from one fleet run."""

    rollup: FleetRollup
    shard_stats: list[ShardStats]
    submitted: int
    end_time: float
    horizon: float
    gpu_count: int
    #: GPU-hours at simulated time and the market-rate bill for them.
    gpu_hours: float
    cost_usd: float
    #: Fleet-level metric snapshot (repro.obs registry).
    metrics: dict = field(default_factory=dict)
    #: Per-shard repro.obs metric snapshots, index-aligned with shards.
    shard_metrics: list = field(default_factory=list)
    #: ``FleetController.summary()`` when the run had a controller.
    controller: Optional[dict] = None
    #: ``SessionCoordinator.summary()`` when the run mixed agentic
    #: sessions into the stream (per-session conservation rollup).
    sessions: Optional[dict] = None
    #: False when the drain deadline ended the run before every request
    #: was disposed; ``unaccounted`` is the number still in flight then.
    drained: bool = True
    unaccounted: int = 0

    @property
    def slo_attainment(self) -> float:
        return self.rollup.slo_attainment

    @property
    def cost_per_token(self) -> Optional[float]:
        return self.rollup.cost_per_token(self.cost_usd)

    def digest(self) -> str:
        """Order-stable hash of the run's outcome: every shard's stats
        row, then the session rollup when the run had sessions."""
        rows: list = [stats.as_dict() for stats in self.shard_stats]
        if self.sessions is not None:
            rows.append(self.sessions)
        payload = json.dumps(rows, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def summary(self) -> dict[str, object]:
        """Fleet rollup plus the run's cost accounting."""
        out = self.rollup.summary()
        out.update(
            submitted=self.submitted,
            end_time=self.end_time,
            gpu_count=self.gpu_count,
            gpu_hours=self.gpu_hours,
            cost_usd=self.cost_usd,
            cost_per_token=self.cost_per_token,
        )
        if self.controller is not None:
            out["controller"] = dict(self.controller)
        if self.sessions is not None:
            out["sessions"] = dict(self.sessions)
        return out


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
        self.partitioner = CatalogPartitioner(
            config.shards,
            virtual_nodes=config.virtual_nodes,
            salt=config.salt,
        )
        self.obs = Observability(config.obs, clock=lambda: self.env.now)
        self.submitted = 0
        #: The attached :class:`~repro.core.sessions.SessionCoordinator`,
        #: if any (see :meth:`attach_sessions`).
        self.sessions = None
        self.shards: list[FleetShard] = []
        for index in range(config.shards):
            system = config.spec.build(self.env)
            stats = ShardStats(shard=index, slo=system.slo)
            shard = FleetShard(
                index=index, name=f"shard-{index}", system=system, stats=stats
            )
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
            shard.system.configure_streaming(
                retain_requests=config.retain_requests,
                request_sink=self._make_sink(shard),
            )
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

    def _hourly_usd(self) -> float:
        """The fleet's combined market rate, from each shard's cluster."""
        total = 0.0
        for shard in self.shards:
            cluster = getattr(shard.system, "cluster", None)
            if cluster is not None:
                for gpu in cluster.gpus:
                    total += MARKET_HOURLY_USD.get(gpu.spec.name, 0.0)
            else:
                # No cluster handle (some baselines): price as H800s.
                total += shard.system.gpu_count * MARKET_HOURLY_USD["H800"]
        return total

    def _make_sink(self, shard: FleetShard):
        """The shard's terminal-disposition sink: fold into its stats,
        then advance any attached session's DAG.  With a controller, its
        spill filter runs first and re-routes rejections it can spill."""
        fold = shard.stats.fold

        def settled(request) -> None:
            fold(request)
            if self.sessions is not None:
                self.sessions.on_settled(request)

        if self.controller is not None:
            return self.controller.make_sink(shard, settled)
        return settled

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
        shard's sink settles each genuine terminal disposition with the
        coordinator (spills re-submit elsewhere and settle there), and
        the run does not drain while a stage submission is pending, so
        think-time gaps keep it alive.  Must precede :meth:`run`.
        """
        if self.submitted:
            raise RuntimeError("attach_sessions must precede run()")
        self.sessions = coordinator
        coordinator.bind(self.submit_routed)

    def run(self, stream, until: Optional[float] = None) -> FleetResult:
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
        drained = replay(
            self.env,
            stream,
            self.submit_routed,
            self._settled,
            until if until is not None else stream.horizon + self.config.drain_grace,
            [shard.system.invariant_checker for shard in self.shards],
        )
        return self._collect(stream.horizon, drained)

    def _collect(self, horizon: float, drained: bool) -> FleetResult:
        shard_stats = [shard.stats for shard in self.shards]
        rollup = FleetRollup(shard_stats)
        gpu_hours = self.gpu_count * self.env.now / 3600.0
        cost_usd = self._hourly_usd() * self.env.now / 3600.0
        if self.obs.enabled:
            summary = rollup.summary()
            metrics = self.obs.metrics
            for key in (
                "slo_attainment",
                "ttft_p50",
                "ttft_p99",
                "tbt_p50",
                "tbt_p99",
            ):
                metrics.gauge(key, scope="fleet").set(float(summary[key]))
        return FleetResult(
            rollup=rollup,
            shard_stats=shard_stats,
            submitted=self.submitted,
            end_time=self.env.now,
            horizon=horizon,
            gpu_count=self.gpu_count,
            gpu_hours=gpu_hours,
            cost_usd=cost_usd,
            metrics=self.obs.metrics.snapshot(),
            shard_metrics=[
                shard.system.obs.metrics.snapshot() for shard in self.shards
            ],
            controller=(
                self.controller.summary() if self.controller is not None else None
            ),
            sessions=(
                self.sessions.summary() if self.sessions is not None else None
            ),
            drained=drained,
            unaccounted=self._unaccounted(),
        )


def build_fleet(
    config: Optional[FleetConfig] = None,
    env: Optional[Environment] = None,
) -> FleetRunner:
    """Construct a fleet control plane — sibling of
    :func:`~repro.core.serving.build_system`, one level up."""
    return FleetRunner(config if config is not None else FleetConfig(), env=env)
