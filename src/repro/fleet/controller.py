"""The live fleet controller: observe, forecast, rebalance, spill.

PR 6 gave the fleet a *static* control plane — the catalog is hashed
across shards once, ``rebalance()`` is a pre-replay pinning hook, and a
request rejected at one shard's admission gate is simply dropped even
when the shard next door is idle.  This module closes the loop the way
DeepServe's control plane does (see PAPERS.md), consuming the
forecast-style signals "Taming the Chaos" argues for instead of
point-in-time queue depths:

* A :class:`FleetController` runs as a periodic simulation process
  (every :data:`TICK_S` simulated seconds).  Each tick it snapshots
  per-shard telemetry (admission pressure, in-flight concurrency, the
  streaming rollup's SLO attainment over the window) into a
  :class:`FleetView`, updates
  per-model EWMA/slope arrival-rate forecasts (:class:`ModelForecast`),
  and asks its :class:`~repro.policy.base.FleetControlPolicy` for
  decisions.
* **Live rebalance** — the policy returns catalog moves; the controller
  re-pins each model on the partitioner so *future* arrivals route to
  the new shard while in-flight requests drain on the old one, warms
  the target shard's model cache, and records the move in both shards'
  rollup stats (``migrations_out`` / ``migrations_in``).
* **Spillover** — when a shard rejects a request at admission, the
  controller may re-submit it to a less-pressured shard (an ordinary
  zero-or-more-delay simulation event, never an inline callback).  Hops
  are bounded by a :class:`SpillLedger`; the spilling shard records the
  disposition as ``spilled`` so per-shard submissions still reconcile
  exactly (``finished + failed + rejected + spilled == submitted``).

Every action happens inside ordinary sim events (the tick timeout, the
spill re-submission process), so controller-enabled runs obey the
DESIGN.md intra-timestamp ordering rules and stay byte-identical across
same-seed replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.request import Phase
from ..policy.fleet_control import get_fleet_policy

__all__ = [
    "ControllerConfig",
    "ModelForecast",
    "ShardTelemetry",
    "FleetView",
    "SpillLedger",
    "FleetController",
]

#: Control-loop period in simulated seconds (a fixed grid: the tick
#: process always re-arms with the same delay).
TICK_S = 5.0
#: EWMA smoothing factor for per-model arrival-rate forecasts.
EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the fleet control loop."""

    #: Registered fleet-control policy name (``"static"``,
    #: ``"forecast"``) or a :class:`FleetControlPolicy` object.
    policy: object = "forecast"
    #: Max cross-shard re-submissions per rejected request; 0 disables
    #: spillover entirely.
    max_spill_hops: int = 2

    def __post_init__(self) -> None:
        if self.max_spill_hops < 0:
            raise ValueError("max_spill_hops must be non-negative")

    def resolve_policy(self) -> object:
        """The policy object this config names (or carries directly)."""
        if isinstance(self.policy, str):
            return get_fleet_policy(self.policy)
        return self.policy


@dataclass
class ModelForecast:
    """EWMA arrival rate plus its slope for one model."""

    rate: float = 0.0
    slope: float = 0.0
    observations: int = 0

    @property
    def predicted(self) -> float:
        """Rate projected one tick ahead (clamped at zero)."""
        return max(0.0, self.rate + self.slope)

    def update(self, observed: float, alpha: float) -> None:
        if self.observations == 0:
            self.rate = observed
            self.slope = 0.0
        else:
            previous = self.rate
            self.rate = alpha * observed + (1.0 - alpha) * previous
            # Slope is pre-scaled by the tick so ``predicted`` reads one
            # tick ahead without re-multiplying.
            self.slope = self.rate - previous
        self.observations += 1


@dataclass(frozen=True)
class ShardTelemetry:
    """One shard's control-plane observables at a tick boundary."""

    index: int
    admission_pressure: float
    in_flight: int
    #: SLO attainment over the last window (1.0 when no tokens came due).
    window_attainment: float
    requests: int
    spilled: int


@dataclass
class FleetView:
    """What a :class:`FleetControlPolicy` sees when asked to decide."""

    now: float
    shards: list[ShardTelemetry]
    forecasts: dict[str, ModelForecast]
    partitioner: object

    def pressure_of(self, shard: int) -> float:
        return self.shards[shard].admission_pressure

    def forecast_shard_loads(self) -> list[float]:
        """Forecast req/s per shard under the current catalog mapping."""
        loads = [0.0] * len(self.shards)
        shard_of = self.partitioner.shard_of
        for name in sorted(self.forecasts):
            loads[shard_of(name)] += self.forecasts[name].predicted
        return loads


class SpillLedger:
    """Bounded-hop bookkeeping for spillover re-submissions.

    Tracks hops per request id only while a request is actually
    spilling — entries are dropped at terminal disposition — so memory
    is bounded by in-flight spilled concurrency, matching the fleet's
    streaming-memory discipline.
    """

    __slots__ = ("max_hops", "_hops")

    def __init__(self, max_hops: int):
        if max_hops < 0:
            raise ValueError("max_hops must be non-negative")
        self.max_hops = max_hops
        self._hops: dict[int, int] = {}

    def can_spill(self, request_id: int) -> bool:
        return self._hops.get(request_id, 0) < self.max_hops

    def record_hop(self, request_id: int) -> int:
        """Count one hop; returns the request's total so far."""
        hops = self._hops.get(request_id, 0) + 1
        if hops > self.max_hops:
            raise RuntimeError(
                f"request {request_id} exceeded the spill bound "
                f"({hops} > {self.max_hops})"
            )
        self._hops[request_id] = hops
        return hops

    def settle(self, request_id: int) -> None:
        """Forget a request that reached a terminal disposition."""
        self._hops.pop(request_id, None)

    def __len__(self) -> int:
        return len(self._hops)


class FleetController:
    """Periodic control loop over a :class:`~repro.fleet.FleetRunner`."""

    def __init__(self, runner, config: ControllerConfig):
        self.runner = runner
        self.config = config
        self.policy = config.resolve_policy()
        self.ledger = SpillLedger(config.max_spill_hops)
        self.forecasts: dict[str, ModelForecast] = {}
        self.ticks = 0
        self.migrations: list[tuple[str, int, int]] = []
        self.spills = 0
        #: Rejections that stood because the hop bound was exhausted.
        self.spill_bound_hits = 0
        self._arrivals: dict[str, int] = {}
        #: Per-shard (tokens_met, tokens_expected) at the last tick, for
        #: windowed attainment.
        self._window = [(0, 0) for _ in runner.shards]
        self._stream = None
        if runner.obs.enabled:
            metrics = runner.obs.metrics
            metrics.gauge("ticks", scope="controller").set_fn(lambda: self.ticks)
            metrics.gauge("migrations", scope="controller").set_fn(
                lambda: len(self.migrations)
            )
            metrics.gauge("spills", scope="controller").set_fn(
                lambda: self.spills
            )

    # -- data-path hooks -----------------------------------------------------
    def bind_stream(self, stream) -> None:
        """Called by the runner at run start (spec lookups for warming)."""
        self._stream = stream

    def note_arrival(self, model: str) -> None:
        """Pump hook: count one arrival toward this tick's forecasts."""
        self._arrivals[model] = self._arrivals.get(model, 0) + 1

    def spill_filter(self, shard):
        """``shard``'s spill check, run first at each of its dispositions.

        A rejection the controller can spill is re-submitted elsewhere
        and the filter returns True, so the shard folds it as
        ``spilled``; every other terminal request is a genuine
        disposition: its spill-ledger entry is settled and the filter
        returns False.
        """
        settle = self.ledger.settle

        def spilled(request) -> bool:
            if request.phase is Phase.REJECTED and self._try_spill(shard, request):
                return True
            settle(request.request_id)
            return False

        return spilled

    # -- spillover -----------------------------------------------------------
    def _try_spill(self, shard, request) -> bool:
        # A policy can mark a rejection as final (the cost router's
        # session-budget shedding): re-routing it to another shard would
        # evade the decision, not the capacity problem.
        if getattr(request, "no_spill", False):
            return False
        if not self.ledger.can_spill(request.request_id):
            if self.config.max_spill_hops:
                self.spill_bound_hits += 1
            return False
        target = self.policy.spill_target(
            self._live_view(), shard.index, request
        )
        if (
            target is None
            or target == shard.index
            or not 0 <= target < len(self.runner.shards)
        ):
            return False
        hops = self.ledger.record_hop(request.request_id)
        self.spills += 1
        # Re-submission is its own sim event (DESIGN.md ordering rule 1:
        # never re-enter the data path from inside a disposition
        # callback), so the rejected request leaves shard ``shard`` this
        # event and arrives at ``target`` a later one.
        self.runner.env.process(self._respill(request.trace, request.spec, target))
        tracer = self.runner.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "fleet.controller.spill",
                cat="fleet",
                track="controller",
                request_id=request.request_id,
                model=request.model,
                src=shard.index,
                dst=target,
                hops=hops,
            )
        return True

    def _respill(self, trace_request, spec, target: int):
        # No cross-shard delay: the re-submission lands later within
        # this timestamp's event batch.
        yield self.runner.env.timeout(0.0)
        self.runner.shards[target].system.submit(trace_request, spec)

    # -- the control loop ----------------------------------------------------
    def start(self) -> None:
        """Arm the periodic tick process on the runner's clock."""
        self.runner.env.process(self._loop())

    def _loop(self):
        env = self.runner.env
        while True:
            # Fixed grid (DESIGN.md ordering rule 4): the delay never
            # varies, so the controller's wakeups stay aligned across
            # runs regardless of what the data path is doing.
            yield env.timeout(TICK_S)
            self._tick()

    def _tick(self) -> None:
        self.ticks += 1
        self._update_forecasts()
        view = self._tick_view()
        for move in self.policy.plan_migrations(view):
            self._apply_migration(*move)
        obs = self.runner.obs
        if obs.enabled:
            for load, telemetry in zip(view.forecast_shard_loads(), view.shards):
                obs.metrics.gauge(
                    "forecast_load", scope=f"shard-{telemetry.index}"
                ).set(load)
        if obs.tracer.enabled:
            obs.tracer.instant(
                "fleet.controller.tick",
                cat="fleet",
                track="controller",
                tick=self.ticks,
                models_forecast=len(self.forecasts),
                migrations=len(self.migrations),
                spills=self.spills,
            )

    def _update_forecasts(self) -> None:
        for model in sorted(set(self.forecasts) | set(self._arrivals)):
            observed = self._arrivals.get(model, 0) / TICK_S
            forecast = self.forecasts.get(model)
            if forecast is None:
                forecast = self.forecasts[model] = ModelForecast()
            forecast.update(observed, EWMA_ALPHA)
        self._arrivals.clear()

    # -- telemetry -----------------------------------------------------------
    def _telemetry(self, windowed: bool) -> list[ShardTelemetry]:
        out = []
        for shard in self.runner.shards:
            stats = shard.stats
            if windowed:
                prev_met, prev_expected = self._window[shard.index]
                d_met = stats.tokens_met - prev_met
                d_expected = stats.tokens_expected - prev_expected
                self._window[shard.index] = (
                    stats.tokens_met,
                    stats.tokens_expected,
                )
                attainment = d_met / d_expected if d_expected else 1.0
            else:
                attainment = stats.slo_attainment
            out.append(
                ShardTelemetry(
                    index=shard.index,
                    admission_pressure=shard.system.admission_pressure(),
                    in_flight=shard.system.registry.in_flight,
                    window_attainment=attainment,
                    requests=stats.requests,
                    spilled=stats.spilled,
                )
            )
        return out

    def _tick_view(self) -> FleetView:
        return FleetView(
            now=self.runner.env.now,
            shards=self._telemetry(windowed=True),
            forecasts=self.forecasts,
            partitioner=self.runner.partitioner,
        )

    def _live_view(self) -> FleetView:
        """A fresh (non-window-consuming) view for spill decisions."""
        return FleetView(
            now=self.runner.env.now,
            shards=self._telemetry(windowed=False),
            forecasts=self.forecasts,
            partitioner=self.runner.partitioner,
        )

    # -- migration -----------------------------------------------------------
    def _apply_migration(self, model: str, src: int, dst: int) -> None:
        shards = self.runner.shards
        if not (0 <= src < len(shards) and 0 <= dst < len(shards)) or src == dst:
            return
        # Idempotent with policies (like the forecast bundle) that pin
        # through partitioner.rebalance() while planning.
        self.runner.partitioner.pin(model, dst)
        spec = None
        if self._stream is not None:
            try:
                spec = self._stream.spec_of(model)
            except KeyError:
                spec = None
        if spec is not None:
            # Future arrivals hit the new shard's model cache warm, the
            # same steady-state prepare() establishes; in-flight work on
            # the old shard drains untouched.
            warm = getattr(shards[dst].system, "warm", None)
            if warm is not None:
                warm([spec])
            shards[src].models = tuple(
                s for s in shards[src].models if s.name != model
            )
            if all(s.name != model for s in shards[dst].models):
                shards[dst].models = shards[dst].models + (spec,)
        shards[src].stats.migrations_out += 1
        shards[dst].stats.migrations_in += 1
        self.migrations.append((model, src, dst))
        tracer = self.runner.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "fleet.controller.migrate",
                cat="fleet",
                track="controller",
                model=model,
                src=src,
                dst=dst,
            )

    # -- results -------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Controller accounting for the run's :class:`ServingResult`."""
        policy = self.policy
        return {
            "policy": getattr(policy, "name", type(policy).__name__),
            "tick": TICK_S,
            "ticks": self.ticks,
            "migrations": len(self.migrations),
            "moves": list(self.migrations),
            "spills": self.spills,
            "spill_bound_hits": self.spill_bound_hits,
            "models_forecast": len(self.forecasts),
        }
