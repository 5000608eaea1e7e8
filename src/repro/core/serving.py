"""The unified serving-system API: protocol, shared base, configs, factory.

Every serving system in this reproduction — Aegaeon itself, the
ServerlessLLM/MuxServe baselines, and the unified-scheduling foils —
speaks the same :class:`ServingSystem` protocol: ``prepare`` /
``dispatch`` / ``serve`` / ``scale_records``.  The shared plumbing
(workload replay through the proxy layer, completion tracking, drain
watchdog, observability attachment) lives in :class:`ServingSystemBase`;
``serve`` ends in :func:`~repro.analysis.metrics.collect_result`, the
one collector a fleet run ends in too.  Every system is constructed the
same way, ``cls(env, cluster, config, policies)``: Aegaeon from an
:class:`~repro.core.server.AegaeonConfig`, every other system from a
:class:`SystemConfig`.  :func:`build_system` builds any registered
system by name from its :class:`SystemSpec`, so benchmarks, examples,
and the observability layer attach to all of them uniformly.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Optional, Protocol, runtime_checkable

from ..engine.engine import AegaeonEngine, ScaleRecord, SwitchRecords
from ..engine.request import Phase, Request
from ..hardware.cluster import Cluster
from ..hardware.gpu import H800
from ..obs import ObsConfig, Observability
from ..policy.base import PolicyBundle, policy_event
from ..policy.placement import MARKET_HOURLY_USD
from ..policy.registry import resolve_bundle
from ..sim import Environment
from ..transfer.kv_transfer import TransferStats
from ..workload.stream import RequestStream
from .proxy import ProxyLayer, StatusRegistry, replay
from .slo import DEFAULT_SLO, SloSpec
from .stats import ShardStats

__all__ = [
    "ServingSystem",
    "ServingSystemBase",
    "SystemConfig",
    "SystemSpec",
    "RunSettings",
    "build_system",
    "available_systems",
    "resolve_cluster",
]

# -- cluster presets ---------------------------------------------------------
_CLUSTER_PRESETS: dict[str, Callable[[Environment], Cluster]] = {
    "testbed": Cluster.testbed,
    "a10": Cluster.a10_node,
    "h800-node": Cluster.h800_node,
    "h800-quad": lambda env: Cluster.homogeneous(env, H800, 1, 4),
    "h800-pair": lambda env: Cluster.homogeneous(env, H800, 1, 2),
}


def resolve_cluster(preset: str, env: Environment) -> Cluster:
    """Build the cluster named by a config's ``cluster`` preset."""
    try:
        builder = _CLUSTER_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown cluster preset {preset!r}; "
            f"known: {sorted(_CLUSTER_PRESETS)}"
        ) from None
    return builder(env)


# -- the protocol ------------------------------------------------------------
@runtime_checkable
class ServingSystem(Protocol):
    """What every serving system exposes to benchmarks and tooling."""

    label: str
    obs: Observability

    def prepare(self, workload: RequestStream) -> None:
        """Pre-trace setup (placement, cache warming)."""

    def dispatch(self, request: Request) -> None:
        """Route one arriving request."""

    def serve(self, workload: RequestStream, until: Optional[float] = None) -> "ServingResult":
        """Replay ``workload`` to completion or the drain deadline."""

    def scale_records(self) -> Sequence[ScaleRecord]:
        """Auto-scaling history across the system's engines."""


# -- shared plumbing ---------------------------------------------------------
class ServingSystemBase:
    """Workload replay, completion tracking, accounting, observability.

    Subclasses implement the protocol's ``dispatch`` and ``prepare`` and
    usually :meth:`engines`; everything else — the proxy layer, the drain
    watchdog, the accounting the result reads, and metric attachment —
    is inherited, so every system is measured identically.  Every system
    is constructed ``cls(env, cluster, config, policies)``: the base
    keeps ``cluster`` and ``config``, takes ``slo``, ``drain_grace`` and
    the observability level from the config, and runs ``policies``, else
    the config's ``policies``, else :attr:`default_policies`.
    """

    label = "system"
    #: Registry name of the bundle this system runs when none is given.
    default_policies = "aegaeon"

    def __init__(
        self,
        env: Environment,
        cluster: Optional[Cluster],
        config: "SystemConfig",
        policies: Optional[PolicyBundle | str] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.config = config
        self.slo = config.slo
        self.drain_grace = config.drain_grace
        self.obs = Observability(config.obs, clock=lambda: env.now)
        if policies is None:
            policies = config.policies
        self.policies = resolve_bundle(policies, self.default_policies)
        self.registry = StatusRegistry()
        self.proxy = ProxyLayer(env, self._ingress, self.registry)
        self.fault_injector = None
        self.invariant_checker = None
        self.gpu_count = 0
        #: The run's one accounting: :meth:`_dispose` folds every
        #: terminal disposition into it once, :meth:`fold_in_flight`
        #: what is still in flight when the run ends.  The result reads
        #: it: ``serve``'s and, per shard, a fleet's.
        self.stats = ShardStats()
        #: Optional observer fired after the fold on every genuine
        #: terminal disposition (a fleet's session settle, a recorder).
        self.request_sink: Optional[Callable[[Request], None]] = None
        #: A fleet controller's spill check, run first at every
        #: disposition: True when it re-routed a rejection to another
        #: shard, which this system then folds as ``spilled``.
        self.spill_filter: Optional[Callable[[Request], bool]] = None
        #: Model specs this run knows by name — populated by serve
        #: paths/:meth:`register_models` and added to on every submit.
        #: Routing policies resolve variant names through this.
        self.spec_index: dict[str, object] = {}
        scope = self.obs.scoped("serving")
        self._failed_counter = scope.counter("requests_failed")
        self._rejected_counter = scope.counter("requests_rejected")
        # REPRO_INVARIANTS=1 turns on runtime invariant checking for
        # every run without touching call sites (used suite-wide in CI).
        if os.environ.get("REPRO_INVARIANTS"):
            self.attach_invariants()
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.gauge("in_flight", scope="proxy").set_fn(
                lambda: self.registry.in_flight
            )
            metrics.gauge("finished", scope="proxy").set_fn(
                lambda: self.registry.finished
            )
            metrics.gauge("steps_executed", scope="sim").set_fn(
                lambda: env.steps_executed
            )
            metrics.gauge("events_scheduled", scope="sim").set_fn(
                lambda: env.events_scheduled
            )

    # -- subclass interface -------------------------------------------------
    def _ingress(self, request: Request) -> None:
        """Proxy entry point: admission first, then the system's dispatch."""
        reason = self.policies.admission.decide(self, request)
        if reason is not None:
            policy_event(
                self.obs.tracer, "admission", decision="reject",
                reason=reason, request_id=request.request_id,
                model=request.model,
            )
            self.note_rejected(request)
            return
        self.dispatch(request)

    def admission_pressure(self) -> float:
        """Seconds of queued work ahead of a fresh arrival (admission's view).

        The base estimate is 0 (no queue model); systems with load
        estimators override this so SLO-aware admission can shed.
        """
        return 0.0

    def engines(self) -> list[AegaeonEngine]:
        """The system's engines, for scaling/transfer statistics; optional."""
        return []

    def scale_records(self) -> SwitchRecords:
        """Auto-scaling history across :meth:`engines`: a read-only view
        of their switch logs as they are now."""
        return SwitchRecords(engine.scale_history for engine in self.engines())

    def transfer_stats(self) -> list[TransferStats]:
        """KV transfer statistics, aggregated across :meth:`engines`."""
        return [engine.kv.stats for engine in self.engines()]

    def hourly_usd(self) -> float:
        """Market rate of the system's GPUs; an unpriced GPU raises."""
        return sum(MARKET_HOURLY_USD[gpu.spec.name] for gpu in self.cluster.gpus)

    # -- chaos attachment ----------------------------------------------------
    def attach_faults(self, plan) -> "object":
        """Arm a :class:`~repro.chaos.FaultPlan` against this run."""
        from ..chaos.injector import FaultInjector

        self.fault_injector = FaultInjector(self, plan, obs=self.obs)
        return self.fault_injector

    def attach_invariants(self) -> "object":
        """Attach a runtime :class:`~repro.chaos.InvariantChecker`.

        Idempotent; :meth:`serve` arms its per-transition checks before
        the clock starts, runs a final sweep and raises on any recorded
        violation before collecting results.
        """
        from ..chaos.invariants import InvariantChecker

        if self.invariant_checker is None:
            self.invariant_checker = InvariantChecker(self)
        return self.invariant_checker

    # -- common plumbing ----------------------------------------------------
    def configure_streaming(
        self,
        *,
        retain_requests: bool = True,
        request_sink: Optional[Callable[[Request], None]] = None,
    ) -> None:
        """Choose whether terminal requests are kept.

        Every disposal folds the request into :attr:`stats`, passes it
        to ``request_sink`` and drops it from the in-flight map.
        ``retain_requests=False`` also keeps it off ``proxy.requests``,
        the one store of admitted requests, so a long replay's memory
        scales with in-flight concurrency rather than trace length.
        That is the fleet shard's mode; :meth:`serve` refuses it, since
        its figure arrays are built from the retained requests.  Must be
        called before any request is submitted.
        """
        if self.proxy.submitted:
            raise RuntimeError("configure_streaming must precede submission")
        self.proxy.retain = retain_requests
        self.request_sink = request_sink

    def register_models(self, models) -> None:
        """Index model specs by name for routing policies to resolve."""
        for spec in models:
            self.spec_index.setdefault(spec.name, spec)

    def submit(self, trace_request, spec) -> Request:
        """Admit one request: the pump's entry point."""
        self.spec_index.setdefault(spec.name, spec)
        request = Request(trace=trace_request, spec=spec, slo=self.slo)
        self.proxy.admit(request)
        return request

    def _dispose(self, request: Request) -> None:
        """Final accounting shared by every terminal disposition."""
        registry = self.registry
        phase = request.phase
        if phase is Phase.FINISHED:
            registry.finished += 1
        elif phase is Phase.FAILED:
            registry.failed += 1
        elif phase is Phase.REJECTED:
            registry.rejected += 1
        if self.spill_filter is not None and self.spill_filter(request):
            self.stats.fold_spilled(request)
        else:
            self.stats.fold(request)
            if self.request_sink is not None:
                self.request_sink(request)
        if self.invariant_checker is not None:
            self.invariant_checker.vet_terminal(request)
        # Every block is back in its cache (or a move list) by now; a
        # retained request must not pin its handle and last transfer.
        request.kv = None
        self.proxy.drop(request)

    def note_finished(self, request: Request) -> None:
        """Record a completed request."""
        self._dispose(request)
        self.obs.tracer.instant(
            "request_finished",
            cat="lifecycle",
            track="proxy",
            request_id=request.request_id,
            model=request.model,
        )

    def note_failed(self, request: Request) -> None:
        """Record a request given up on mid-flight (degraded mode)."""
        request.phase = Phase.FAILED
        self._dispose(request)
        self._failed_counter.inc()
        self.obs.tracer.instant(
            "request_failed",
            cat="lifecycle",
            track="proxy",
            request_id=request.request_id,
            model=request.model,
        )

    def note_rejected(self, request: Request) -> None:
        """Record a request turned away at admission (no live capacity)."""
        request.phase = Phase.REJECTED
        self._dispose(request)
        self._rejected_counter.inc()
        self.obs.tracer.instant(
            "request_rejected",
            cat="lifecycle",
            track="proxy",
            request_id=request.request_id,
            model=request.model,
        )

    @property
    def accounted(self) -> int:
        """Requests with a final disposition: finished, failed, rejected,
        as the registry counts them."""
        registry = self.registry
        return registry.finished + registry.failed + registry.rejected

    def fold_in_flight(self) -> None:
        """Fold every request still in flight into :attr:`stats`.

        Called once when a run ends, by the collector of ``serve`` and
        of a fleet run alike: a request the drain deadline cut off counts
        its tokens never generated as missed (§2.1).  A drained run has
        nothing in flight.
        """
        fold = self.stats.fold
        for request in self.proxy.live.values():
            fold(request)

    def serve(self, workload: RequestStream, until: Optional[float] = None) -> "ServingResult":
        """Replay ``workload`` to completion or the drain deadline.

        The workload is pulled one request at a time, so a generated
        stream keeps its bounded lookahead.  ``prepare`` receives the
        workload itself as the run's catalog (``models``, ``horizon``,
        per-model ``rates``).  The result reads :attr:`stats`, with
        the requests still in flight at the deadline folded in; its
        figure arrays need the retained requests, so a system
        configured with ``configure_streaming(retain_requests=False)``
        raises :class:`RuntimeError`: replay a streaming run as a
        one-shard fleet instead.
        """
        if not self.proxy.retain:
            raise RuntimeError(
                "serve() builds its figure arrays from retained requests, and this "
                "system drops them (configure_streaming(retain_requests=False)); "
                "for a streaming replay run a one-shard fleet, "
                "build_fleet(FleetConfig(shards=1, spec=...))"
            )
        self.register_models(workload.models)
        self.prepare(workload)
        proxy = self.proxy
        drained = replay(
            self.env,
            workload,
            self.submit,
            lambda: self.accounted >= proxy.submitted,
            until if until is not None else workload.horizon + self.drain_grace,
            (self.invariant_checker,),
        )
        # Imported here to avoid a core <-> analysis import cycle.
        from ..analysis.metrics import collect_result

        return collect_result(
            [self],
            self.env,
            workload.horizon,
            drained,
            proxy.submitted - self.accounted,
            proxy.submitted,
        )


# -- config surface ----------------------------------------------------------
@dataclass(frozen=True)
class SystemConfig:
    """Deployment knobs of every serving system but Aegaeon.

    The system name picks the rest: ``serverless-llm+`` its SJF bundle,
    ``unified-prefill-first`` / ``unified-decode-first`` their policy.
    """

    slo: SloSpec = DEFAULT_SLO
    cluster: str = "testbed"
    drain_grace: float = 300.0
    obs: ObsConfig = ObsConfig()
    #: Policy bundle name (or None for the system's default bundle).
    policies: Optional[str] = None


def _default_config(name: str):
    """The config a system gets when its spec names none."""
    if _system_key(name) == "aegaeon":
        from .server import AegaeonConfig

        return AegaeonConfig()
    return SystemConfig()


@dataclass(frozen=True)
class SystemSpec:
    """Declarative recipe for one serving system.

    Consolidates what used to be loose :func:`build_system` keyword
    arguments — cluster preset, policy bundle, observability level, and
    chaos attachments — into one value that can be stored, compared,
    and replicated across fleet shards.  This is the canonical
    constructor path: ``build_system(spec)`` or ``spec.build(env)``.
    """

    system: str = "aegaeon"
    #: The system's config (:class:`~repro.core.server.AegaeonConfig` or
    #: :class:`SystemConfig`); None uses the system's defaults as the base.
    config: Optional[object] = None
    #: Override the config's cluster preset (e.g. ``"h800-quad"``).
    cluster: Optional[str] = None
    #: Policy bundle (registry name or :class:`PolicyBundle` object);
    #: None keeps the config's / system's default.
    policies: Optional[PolicyBundle | str] = None
    #: Override the config's observability level.
    obs: Optional[ObsConfig] = None
    #: Optional :class:`~repro.chaos.FaultPlan` armed against the run.
    faults: Optional[object] = None
    invariants: bool = False

    def resolve_config(self):
        """The effective config after applying the spec's overrides."""
        config = self.config if self.config is not None else _default_config(self.system)
        overrides: dict[str, object] = {}
        if self.cluster is not None:
            overrides["cluster"] = self.cluster
        if self.obs is not None:
            overrides["obs"] = self.obs
        if self.policies is not None:
            overrides["policies"] = self.policies
        return replace(config, **overrides) if overrides else config

    def build(self, env: Optional[Environment] = None) -> "ServingSystem":
        """Construct the system this spec describes (fresh clock if
        ``env`` is omitted)."""
        return _build_system(
            self.system,
            env if env is not None else Environment(),
            self.resolve_config(),
            faults=self.faults,
            invariants=self.invariants,
        )


@dataclass(frozen=True)
class RunSettings:
    """Run-level knobs shared by the benchmark harness and CI smoke runs.

    This is the single home of the ``REPRO_BENCH_*`` environment
    handling that used to be scattered through ``benchmarks/_common.py``,
    with the observability level (``REPRO_OBS``) hanging off it.
    """

    horizon: float = 150.0
    scale: float = 1.0
    seed: int = 2025
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Policy bundle name (``REPRO_POLICIES``); None picks each system's
    #: default bundle.
    policies: Optional[str] = None

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RunSettings":
        """Resolve settings from ``REPRO_BENCH_{HORIZON,SCALE,SEED}``,
        ``REPRO_OBS`` and ``REPRO_POLICIES``.

        The full ``REPRO_*`` surface lives in :mod:`repro.envkeys`; any
        unrecognized ``REPRO_*`` key draws a :class:`RuntimeWarning`
        naming the nearest valid key — a typo'd knob silently doing
        nothing is worse than noise.
        """
        from ..envkeys import warn_unknown_env_keys

        environ = os.environ if environ is None else environ
        warn_unknown_env_keys(environ)
        defaults = cls()
        policies = environ.get("REPRO_POLICIES", "").strip() or None
        return cls(
            horizon=float(environ.get("REPRO_BENCH_HORIZON", defaults.horizon)),
            scale=float(environ.get("REPRO_BENCH_SCALE", defaults.scale)),
            seed=int(environ.get("REPRO_BENCH_SEED", defaults.seed)),
            obs=ObsConfig.from_env(environ),
            policies=policies,
        )


# -- factory -----------------------------------------------------------------
def _system_classes() -> dict[str, Callable[..., "ServingSystem"]]:
    """Every registered system by name; each is called
    ``(env, cluster, config)``.  Imported here: they import this module."""
    from ..baselines.muxserve import MuxServe
    from ..baselines.serverless_llm import ServerlessLLM, ServerlessLLMPlus
    from .server import AegaeonServer
    from .unified import DECODE_FIRST, PREFILL_FIRST, UnifiedServer

    return {
        "aegaeon": AegaeonServer,
        "serverless-llm": ServerlessLLM,
        "serverless-llm+": ServerlessLLMPlus,
        "muxserve": MuxServe,
        "unified-prefill-first": partial(UnifiedServer, policy=PREFILL_FIRST),
        "unified-decode-first": partial(UnifiedServer, policy=DECODE_FIRST),
    }


_ALIASES = {
    "serverlessllm": "serverless-llm",
    "serverlessllm+": "serverless-llm+",
}


def _system_key(name: str) -> str:
    """The registry key ``name`` denotes (case and aliases folded)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _system_classes():
        raise ValueError(
            f"unknown serving system {name!r}; known: {available_systems()}"
        )
    return key


def available_systems() -> list[str]:
    """Names accepted by :func:`build_system`."""
    return sorted(_system_classes())


def _build_system(
    name: str,
    env: Environment,
    config,
    *,
    faults=None,
    invariants: bool = False,
) -> "ServingSystem":
    """The factory proper: name + config in, system out.  Reached
    through :meth:`SystemSpec.build`."""
    cls = _system_classes()[_system_key(name)]
    system = cls(env, resolve_cluster(config.cluster, env), config)
    if faults is not None:
        system.attach_faults(faults)
    if invariants:
        system.attach_invariants()
    return system


def build_system(spec: SystemSpec, env: Optional[Environment] = None) -> "ServingSystem":
    """Construct a serving system from a :class:`SystemSpec`.

    ``build_system(spec)`` (optionally with an ``env`` to share a clock)
    and ``build_fleet(FleetConfig(...))`` are the two constructor paths
    — a spec is one storable, comparable value naming the system,
    config, cluster, policy bundle, observability level, and chaos
    attachments.
    """
    if not isinstance(spec, SystemSpec):
        raise TypeError(
            f"build_system() takes a SystemSpec, not {type(spec).__name__}; "
            "use build_system(SystemSpec(system=name, config=config, ...), env)"
        )
    return spec.build(env)
