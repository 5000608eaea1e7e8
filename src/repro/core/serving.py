"""The unified serving-system API: protocol, shared base, configs, factory.

Every serving system in this reproduction — Aegaeon itself, the
ServerlessLLM/MuxServe baselines, and the unified-scheduling foils —
speaks the same :class:`ServingSystem` protocol: ``prepare`` /
``dispatch`` / ``serve`` / ``collect`` / ``scale_records``.  The shared
plumbing (trace replay through the proxy layer, completion tracking,
drain watchdog, result collection, observability attachment) lives in
:class:`ServingSystemBase`; :func:`build_system` constructs any
registered system by name from its config dataclass, so benchmarks,
examples, and the observability layer attach to all of them uniformly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Protocol, runtime_checkable

from ..engine.engine import AegaeonEngine, ScaleRecord
from ..engine.request import Phase, Request
from ..hardware.cluster import Cluster
from ..hardware.gpu import H800
from ..obs import NULL_OBS, ObsConfig, Observability
from ..policy.base import PolicyBundle, policy_event
from ..policy.registry import resolve_bundle
from ..policy.tunables import Tunables
from ..sim import Environment
from ..transfer.kv_transfer import TransferStats
from ..workload.trace import Trace
from ..workload.stream import stream_of_trace
from .proxy import ProxyLayer, StatusRegistry, replay
from .slo import DEFAULT_SLO, SloSpec

__all__ = [
    "ServingSystem",
    "ServingSystemBase",
    "BaselineServer",
    "SystemConfig",
    "SystemSpec",
    "ServerlessLLMConfig",
    "MuxServeConfig",
    "UnifiedConfig",
    "RunSettings",
    "build_system",
    "available_systems",
    "resolve_cluster",
]

GiB = 1024**3


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

    def prepare(self, trace: Trace) -> None:
        """Pre-trace setup (placement, cache warming)."""

    def dispatch(self, request: Request) -> None:
        """Route one arriving request."""

    def serve(self, trace: Trace, until: Optional[float] = None) -> "ServingResult":
        """Replay ``trace`` to completion or the drain deadline."""

    def collect(self, trace: Trace) -> "ServingResult":
        """Assemble the measurement object from current state."""

    def scale_records(self) -> list[ScaleRecord]:
        """Auto-scaling history across the system's engines."""


# -- shared plumbing ---------------------------------------------------------
class ServingSystemBase:
    """Trace replay, completion tracking, result collection, observability.

    Subclasses implement :meth:`dispatch` and usually :meth:`prepare` and
    :meth:`engines`; everything else — the proxy layer, the drain
    watchdog, :class:`~repro.analysis.metrics.ServingResult` assembly,
    and metric attachment — is inherited, so every system is measured
    identically.
    """

    label = "system"
    #: Registry name of the bundle this system runs when none is given.
    default_policies = "aegaeon"

    def __init__(
        self,
        env: Environment,
        slo: SloSpec = DEFAULT_SLO,
        drain_grace: float = 300.0,
        obs: Optional[ObsConfig | Observability] = None,
        policies: Optional[PolicyBundle | str] = None,
    ):
        self.env = env
        self.slo = slo
        self.drain_grace = drain_grace
        if isinstance(obs, Observability):
            self.obs = obs
        else:
            self.obs = Observability(
                obs if obs is not None else ObsConfig(), clock=lambda: env.now
            )
        self.policies = resolve_bundle(policies, self.default_policies)
        self.registry = StatusRegistry()
        self.proxy = ProxyLayer(env, self._ingress, self.registry)
        self.finished: list[Request] = []
        self.failed: list[Request] = []
        self.rejected: list[Request] = []
        self.fault_injector = None
        self.invariant_checker = None
        self.gpu_count = 0
        #: Optional callback fired on every terminal disposition — the
        #: fleet rollup folds requests into mergeable stats through this.
        self.request_sink: Optional[Callable[[Request], None]] = None
        #: The fleet controller's latest load hint for this shard
        #: (forecast load / fleet mean; 1.0 == fair share).  See
        #: :meth:`apply_scaling_hint`.
        self.scaling_hint: float = 1.0
        #: Model specs this run knows by name — populated by serve
        #: paths/:meth:`register_models` and added to on every submit.
        #: Routing policies resolve variant names through this.
        self.spec_index: dict[str, object] = {}
        self._disposed = 0
        scope = self.obs.scoped("serving")
        self._failed_counter = scope.counter("requests_failed")
        self._rejected_counter = scope.counter("requests_rejected")
        # REPRO_INVARIANTS=1 turns on continuous invariant checking for
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

    def apply_scaling_hint(self, hint: float) -> None:
        """Record the fleet controller's load hint for this system.

        The hint is stored on :attr:`scaling_hint` for any policy to
        read, and forwarded to the bundle's scaling policy when it
        implements the optional ``observe_fleet_hint(system, hint)``
        hook.  Bundle policy objects are shared across shards, so
        policies must key any state they keep off ``system``, not
        ``self``.
        """
        self.scaling_hint = float(hint)
        observe = getattr(self.policies.scaling, "observe_fleet_hint", None)
        if observe is not None:
            observe(self, hint)

    def dispatch(self, request: Request) -> None:
        """Route one arriving request (subclasses implement)."""
        raise NotImplementedError

    def prepare(self, trace: Trace) -> None:
        """Pre-trace setup (placement, cache warming); optional."""

    def engines(self) -> list[AegaeonEngine]:
        """The system's engines, for scaling/transfer statistics; optional."""
        return []

    def scale_records(self) -> list[ScaleRecord]:
        """Auto-scaling history, aggregated across :meth:`engines`."""
        return [
            record for engine in self.engines() for record in engine.scale_history
        ]

    def transfer_stats(self) -> list[TransferStats]:
        """KV transfer statistics, aggregated across :meth:`engines`."""
        return [engine.kv.stats for engine in self.engines()]

    # -- chaos attachment ----------------------------------------------------
    def attach_faults(self, plan) -> "object":
        """Arm a :class:`~repro.chaos.FaultPlan` against this run."""
        from ..chaos.injector import FaultInjector

        self.fault_injector = FaultInjector(self, plan, obs=self.obs)
        return self.fault_injector

    def attach_invariants(self, interval: float = 0.5) -> "object":
        """Attach a runtime :class:`~repro.chaos.InvariantChecker`.

        Idempotent; :meth:`serve` runs a final check and raises on any
        recorded violation before collecting results.
        """
        from ..chaos.invariants import InvariantChecker

        if self.invariant_checker is None:
            self.invariant_checker = InvariantChecker(self, interval=interval)
        return self.invariant_checker

    # -- common plumbing ----------------------------------------------------
    def configure_streaming(
        self,
        *,
        retain_requests: bool = True,
        request_sink: Optional[Callable[[Request], None]] = None,
    ) -> None:
        """Choose whether terminal requests are kept.

        Every disposal folds the request through ``request_sink`` and
        drops it from the in-flight map.  ``retain_requests=False``
        also keeps it off ``proxy.requests`` and the finished/failed/
        rejected ledgers, so a long replay's memory scales with
        in-flight concurrency rather than trace length.  Must be called
        before any request is submitted.
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
        request = Request(trace=trace_request, spec=spec)
        self.proxy.admit(request)
        return request

    def _dispose(self, request: Request, ledger: list[Request]) -> None:
        """Final accounting shared by every terminal disposition."""
        self._disposed += 1
        if self.request_sink is not None:
            self.request_sink(request)
        if self.proxy.retain:
            ledger.append(request)
        if self.invariant_checker is not None:
            self.invariant_checker.vet_terminal(request)
        self.proxy.drop(request)
        self.registry.forget(request.request_id)

    def note_finished(self, request: Request) -> None:
        """Record a completed request."""
        self.registry.update(request)
        self._dispose(request, self.finished)
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
        self.registry.update(request)
        self._dispose(request, self.failed)
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
        self.registry.update(request)
        self._dispose(request, self.rejected)
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
        """Requests with a final disposition: finished, failed, rejected."""
        return self._disposed

    def serve(self, trace: Trace, until: Optional[float] = None) -> "ServingResult":
        """Replay ``trace`` to completion or the drain deadline."""
        return self.serve_stream(stream_of_trace(trace), until=until)

    def serve_stream(self, stream, until: Optional[float] = None) -> "ServingResult":
        """Replay a :class:`~repro.workload.stream.RequestStream` lazily.

        The stream is pulled one request at a time (bounded lookahead);
        with ``configure_streaming(retain_requests=False)`` the run's
        memory is bounded by concurrency, not request count.  ``prepare``
        receives the stream itself as the run's catalog (``models``,
        ``horizon``, per-model ``rates``).
        """
        self.register_models(stream.models)
        self.prepare(stream)
        proxy = self.proxy
        drained = replay(
            self.env,
            stream,
            self.submit,
            lambda: self.accounted >= proxy.submitted,
            until if until is not None else stream.horizon + self.drain_grace,
            (self.invariant_checker,),
        )
        result = self.collect(stream)
        result.drained = drained
        result.unaccounted = proxy.submitted - self.accounted
        return result

    def collect(self, trace: Trace) -> "ServingResult":
        """Assemble the measurement object."""
        # Imported here to avoid a core <-> analysis import cycle.
        from ..analysis.metrics import ServingResult

        return ServingResult(
            requests=list(self.proxy.requests),
            slo=self.slo,
            horizon=trace.horizon,
            end_time=self.env.now,
            scale_records=self.scale_records(),
            transfer_stats=self.transfer_stats(),
            gpu_count=self.gpu_count,
            label=self.label,
            metrics=self.obs.metrics.snapshot(),
            obs=self.obs,
        )


class BaselineServer(ServingSystemBase):
    """Base for the baseline systems (kept as their import point)."""

    label = "baseline"


# -- config surface ----------------------------------------------------------
@dataclass(frozen=True)
class SystemConfig:
    """Deployment knobs shared by every baseline serving system."""

    slo: SloSpec = DEFAULT_SLO
    cluster: str = "testbed"
    drain_grace: float = 300.0
    obs: ObsConfig = ObsConfig()
    #: Policy bundle name (or None for the system's default bundle).
    policies: Optional[str] = None


@dataclass(frozen=True)
class ServerlessLLMConfig(SystemConfig):
    """Deployment shape for ServerlessLLM (``sjf=True`` for the + variant)."""

    tp: int = 1
    instance_count: Optional[int] = None
    max_batch_size: int = 32
    model_cache_bytes: int = 1280 * GiB
    sjf: bool = False


@dataclass(frozen=True)
class MuxServeConfig(SystemConfig):
    """Deployment shape for the MuxServe static-multiplexing baseline."""

    tp: int = 1
    max_batch_size: int = 32


@dataclass(frozen=True)
class UnifiedConfig(SystemConfig):
    """Deployment shape for the unified token-level scheduling foils.

    The system name picks the scheduling policy: ``unified-prefill-first``
    or ``unified-decode-first``.
    """

    model_cache_bytes: int = 640 * GiB


def _default_config(name: str):
    """The config dataclass a system gets when none is supplied."""
    key = _ALIASES.get(name.strip().lower(), name.strip().lower())
    if key == "aegaeon":
        from .server import AegaeonConfig

        return AegaeonConfig()
    if key == "serverless-llm":
        return ServerlessLLMConfig()
    if key == "serverless-llm+":
        return ServerlessLLMConfig(sjf=True)
    if key == "muxserve":
        return MuxServeConfig()
    if key in ("unified-prefill-first", "unified-decode-first"):
        return UnifiedConfig()
    raise ValueError(
        f"unknown serving system {name!r}; known: {available_systems()}"
    )


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
    #: Full config dataclass; None uses the system's defaults as the base.
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
    #: Shared tuning constants (``REPRO_TUNE_*`` overrides).
    tunables: Tunables = field(default_factory=Tunables)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RunSettings":
        """Resolve settings from ``REPRO_BENCH_{HORIZON,SCALE,SEED}``,
        ``REPRO_OBS``, ``REPRO_POLICIES``, and ``REPRO_TUNE_*``.

        The full ``REPRO_*`` surface lives in :mod:`repro.envkeys` (one
        registry shared with ``FleetConfig.from_env``, which consumes
        the ``REPRO_FLEET_*`` family); any unrecognized ``REPRO_*`` key
        draws a :class:`RuntimeWarning` naming the nearest valid key — a
        typo'd knob silently doing nothing is worse than noise.
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
            tunables=Tunables.from_env(environ),
        )


# -- factory -----------------------------------------------------------------
def _build_aegaeon(env: Environment, config, policies):
    from .server import AegaeonConfig, AegaeonServer

    config = config if config is not None else AegaeonConfig()
    return AegaeonServer(
        env, resolve_cluster(config.cluster, env), config, policies=policies
    )


def _build_serverless(env: Environment, config, policies):
    from ..baselines.serverless_llm import ServerlessLLM, ServerlessLLMPlus

    config = config if config is not None else ServerlessLLMConfig()
    cls = ServerlessLLMPlus if config.sjf else ServerlessLLM
    return cls(
        env,
        resolve_cluster(config.cluster, env),
        instance_count=config.instance_count,
        tp=config.tp,
        slo=config.slo,
        max_batch_size=config.max_batch_size,
        model_cache_bytes=config.model_cache_bytes,
        obs=config.obs,
        policies=policies,
    )


def _build_serverless_plus(env: Environment, config, policies):
    config = config if config is not None else ServerlessLLMConfig()
    return _build_serverless(env, replace(config, sjf=True), policies)


def _build_muxserve(env: Environment, config, policies):
    from ..baselines.muxserve import MuxServe

    config = config if config is not None else MuxServeConfig()
    return MuxServe(
        env,
        resolve_cluster(config.cluster, env),
        tp=config.tp,
        slo=config.slo,
        max_batch_size=config.max_batch_size,
        obs=config.obs,
        policies=policies,
    )


def _build_unified(policy: str):
    def build(env: Environment, config, policies):
        from .unified import UnifiedServer

        config = config if config is not None else UnifiedConfig()
        return UnifiedServer(
            env,
            resolve_cluster(config.cluster, env),
            policy=policy,
            slo=config.slo,
            model_cache_bytes=config.model_cache_bytes,
            obs=config.obs,
            policies=policies,
        )

    return build


_BUILDERS: dict[str, Callable[[Environment, object, object], "ServingSystem"]] = {
    "aegaeon": _build_aegaeon,
    "serverless-llm": _build_serverless,
    "serverless-llm+": _build_serverless_plus,
    "muxserve": _build_muxserve,
    "unified-prefill-first": _build_unified("prefill_first"),
    "unified-decode-first": _build_unified("decode_first"),
}

_ALIASES = {
    "serverlessllm": "serverless-llm",
    "serverlessllm+": "serverless-llm+",
}


def available_systems() -> list[str]:
    """Names accepted by :func:`build_system`."""
    return sorted(_BUILDERS)


def _build_system(
    name: str,
    env: Environment,
    config=None,
    *,
    faults=None,
    invariants: bool = False,
) -> "ServingSystem":
    """The factory proper: name + config in, system out.  Reached
    through :meth:`SystemSpec.build`."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise ValueError(
            f"unknown serving system {name!r}; known: {available_systems()}"
        ) from None
    system = builder(env, config, getattr(config, "policies", None))
    if faults is not None:
        system.attach_faults(faults)
    if invariants:
        system.attach_invariants()
    return system


def build_system(
    spec: SystemSpec,
    env: Optional[Environment] = None,
    config=None,
    *,
    policies: Optional[PolicyBundle | str] = None,
    faults=None,
    invariants: bool = False,
) -> "ServingSystem":
    """Construct a serving system from a :class:`SystemSpec`.

    ``build_system(spec)`` (optionally with an ``env`` to share a clock)
    and ``build_fleet(FleetConfig(...))`` are the two constructor paths
    — a spec is one storable, comparable value naming the system,
    config, cluster, policy bundle, observability level, and chaos
    attachments.  The loose ``config``/``policies``/``faults``/
    ``invariants`` arguments exist only to reject callers that pass
    them here instead of on the spec.
    """
    if not isinstance(spec, SystemSpec):
        raise TypeError(
            f"build_system() takes a SystemSpec, not {type(spec).__name__}; "
            "use build_system(SystemSpec(system=name, config=config, ...), env)"
        )
    if config is not None or policies is not None or faults is not None or invariants:
        raise TypeError(
            "build_system(spec) takes no loose keywords; put config/"
            "policies/faults/invariants on the SystemSpec itself"
        )
    return spec.build(env)
