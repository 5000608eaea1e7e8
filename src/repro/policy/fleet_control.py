"""Fleet-control policies: what the controller loop decides each tick.

Two registered policies bracket the design space the way the serving
bundles do:

* :class:`StaticFleetControl` (``"static"``) — the no-op foil: never
  migrates, never spills.  A controller running this
  policy observes telemetry (and emits ``fleet.controller.tick``
  events) but leaves the data path byte-identical to a controller-less
  run — the baseline every forecast-driven improvement is measured
  against.
* :class:`ForecastFleetControl` (``"forecast"``) — the DeepServe-style
  active loop: feeds the per-model EWMA/slope arrival forecasts into
  the partitioner's load-aware ``rebalance()`` to migrate hot models
  off overloaded shards live, and redirects admission-rejected requests
  to the currently least-pressured shard (bounded hops enforced by the
  controller).

Both are plain objects satisfying the duck-typed
:class:`~repro.policy.base.FleetControlPolicy` protocol; register your
own with :func:`register_fleet_policy`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = [
    "StaticFleetControl",
    "ForecastFleetControl",
    "register_fleet_policy",
    "get_fleet_policy",
    "available_fleet_policies",
]

#: Load imbalance (relative to the fleet mean) a shard may carry before
#: the forecast policy migrates a model off it.
TOLERANCE = 0.10
#: Cap on catalog moves per control tick, bounding migration churn the
#: same way the pre-replay ``rebalance()`` hook does.
MAX_MOVES_PER_TICK = 2
#: Forecast rates at or below this drop out of the load map, so a long
#: tail of idle models cannot mask a hot head.
MIN_RATE = 1e-6


class StaticFleetControl:
    """Observe-only control: no migrations, no spillover."""

    name = "static"

    def plan_migrations(self, view: Any) -> list[tuple[str, int, int]]:
        return []

    def spill_target(self, view: Any, shard: int, request: Any) -> Optional[int]:
        return None


class ForecastFleetControl:
    """Forecast-driven control: live rebalance + spillover.

    Migration churn is bounded by the module's :data:`TOLERANCE`,
    :data:`MAX_MOVES_PER_TICK` and :data:`MIN_RATE`.
    """

    name = "forecast"

    def plan_migrations(self, view: Any) -> list[tuple[str, int, int]]:
        loads = {
            name: forecast.predicted
            for name, forecast in view.forecasts.items()
            if forecast.predicted > MIN_RATE
        }
        if not loads or not MAX_MOVES_PER_TICK:
            return []
        # The partitioner's rebalance both *plans* and *pins*: returned
        # moves are already in effect for future pump routing, which is
        # exactly the live-migration semantics (in-flight work drains on
        # the old shard untouched).
        return view.partitioner.rebalance(
            loads, tolerance=TOLERANCE, max_moves=MAX_MOVES_PER_TICK
        )

    def spill_target(self, view: Any, shard: int, request: Any) -> Optional[int]:
        here = view.pressure_of(shard)
        best: Optional[int] = None
        best_pressure = here
        for telemetry in view.shards:
            if telemetry.index == shard:
                continue
            pressure = view.pressure_of(telemetry.index)
            # Strictly-better targets only (ties break on shard index by
            # iteration order): spilling to an equally loaded shard just
            # moves the rejection somewhere else.
            if pressure < best_pressure:
                best = telemetry.index
                best_pressure = pressure
        return best


_FLEET_POLICIES: dict[str, Callable[[], Any]] = {}


def register_fleet_policy(name: str, factory: Callable[[], Any]) -> None:
    """Register a :class:`FleetControlPolicy` factory under ``name``."""
    key = name.strip().lower()
    if not key:
        raise ValueError("fleet policy name must be non-empty")
    _FLEET_POLICIES[key] = factory


def get_fleet_policy(name: str) -> Any:
    """Construct the fleet-control policy registered under ``name``."""
    key = name.strip().lower()
    try:
        factory = _FLEET_POLICIES[key]
    except KeyError:
        raise ValueError(
            f"unknown fleet control policy {name!r}; "
            f"known: {available_fleet_policies()}"
        ) from None
    return factory()


def available_fleet_policies() -> list[str]:
    """Names accepted by :func:`get_fleet_policy`."""
    return sorted(_FLEET_POLICIES)


register_fleet_policy("static", StaticFleetControl)
register_fleet_policy("forecast", ForecastFleetControl)
