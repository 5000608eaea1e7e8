"""The tracked perf scenarios.

Each scenario function takes ``quick`` (smaller problem for CI smoke
runs) and returns a flat result dict with at least:

* ``ops_per_sec`` — kernel events dispatched per wall second
* ``wall_s``      — wall-clock seconds of the timed section
* ``sim_steps``   — kernel events dispatched inside the timed section
* fingerprint fields (``sim_end``, ``requests`` where applicable) so a
  perf regression can be told apart from a behavior change.

Scenarios that replay requests also report ``requests_per_sec``, and
that is the figure the gate tracks for them (see :func:`gate_metric`):
a change that stops scheduling events nobody waits on serves the same
requests in fewer steps, which ``ops_per_sec`` would read as a drop.
Only ``kernel_event_throughput``, where events are the work, is gated
on ``ops_per_sec``.
"""

from __future__ import annotations

import resource
import time
from typing import Callable

from benchmarks._common import require_drained
from repro.core import AegaeonConfig, AegaeonServer
from repro.hardware import Cluster, H800
from repro.models import market_mix
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

__all__ = ["FULL_SCENARIOS", "SCENARIOS", "SUITES", "gate_metric", "run_scenario"]


def kernel_event_throughput(quick: bool = False) -> dict:
    """Raw kernel throughput: timeout ping-pong across many processes.

    100 concurrent processes each advance through 2000 timeouts while a
    canceller schedules and cancels a long timeout every fourth step —
    the lazy-cancel and single-waiter fast paths both sit on this loop.
    Bare ``env.run()`` drives the same single dispatch loop as
    ``run(until=...)``, so this measures the kernel that serving, fleet,
    and chaos runs use.
    """
    n_procs = 100
    n_steps = 400 if quick else 2000

    env = Environment()

    def worker(env: Environment, delay: float):
        for _ in range(n_steps):
            yield env.timeout(delay)

    def canceller(env: Environment):
        # Exercise lazy cancellation: schedule and cancel a long timeout
        # each iteration; cancelled entries must be dropped at pop.
        for _ in range(n_steps // 4):
            doomed = env.timeout(1000.0)
            doomed.cancel()
            yield env.timeout(1.0)

    for i in range(n_procs):
        env.process(worker(env, 0.5 + 0.01 * i))
    env.process(canceller(env))

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    steps = env.steps_executed
    return {
        "ops_per_sec": steps / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "sim_steps": steps,
        "sim_end": env.now,
        "events_cancelled": env.events_cancelled,
    }


def end_to_end_serving(quick: bool = False) -> dict:
    """Figure-11-style run: Aegaeon, 8 models, moderate load, 4 GPUs."""
    horizon = 20.0 if quick else 60.0
    env = Environment()
    server = AegaeonServer(
        env,
        Cluster.homogeneous(env, H800, 1, 4),
        AegaeonConfig(prefill_instances=1, decode_instances=3),
    )
    models = market_mix(8)
    trace = materialize_trace(
        models, [0.4] * 8, sharegpt(), horizon=horizon, seed=2025
    )
    start = time.perf_counter()
    result = server.serve(trace)
    wall = time.perf_counter() - start
    require_drained(result)
    steps = env.steps_executed
    requests = len(result.requests)
    return {
        "ops_per_sec": steps / wall if wall > 0 else 0.0,
        "requests_per_sec": requests / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "sim_steps": steps,
        "sim_end": env.now,
        "requests": requests,
    }


def switch_storm(quick: bool = False) -> dict:
    """Worst-case auto-scaling churn: 12 models sharing 1+1 instances.

    Every decode round rotates through many models, so the run is
    dominated by scale-to/swap traffic — the KV-transfer manager, slab
    allocator, and reclaim daemon hot paths.
    """
    horizon = 15.0 if quick else 40.0
    n_models = 12
    env = Environment()
    server = AegaeonServer(
        env,
        Cluster.homogeneous(env, H800, 1, 2),
        AegaeonConfig(prefill_instances=1, decode_instances=1),
    )
    models = market_mix(n_models)
    trace = materialize_trace(
        models, [0.15] * n_models, sharegpt(), horizon=horizon, seed=7
    )
    start = time.perf_counter()
    result = server.serve(trace)
    wall = time.perf_counter() - start
    require_drained(result)
    steps = env.steps_executed
    requests = len(result.requests)
    return {
        "ops_per_sec": steps / wall if wall > 0 else 0.0,
        "requests_per_sec": requests / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "sim_steps": steps,
        "sim_end": env.now,
        "requests": requests,
    }


def fleet_replay(quick: bool = False) -> dict:
    """Fleet-smoke: 4 shards, 10^4-request market replay, one clock.

    Exercises the sharded control plane end to end — consistent-hash
    partitioning with a load-aware rebalance, the streaming pump, and
    non-retained disposal — at CI scale (the ``examples`` demo runs the
    same shape at 8 shards / 10^5 requests).
    """
    from repro.core import SystemSpec
    from repro.fleet import FleetConfig, build_fleet
    from repro.workload import market_stream

    horizon = 120.0 if quick else 840.0
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad"
        )
    )
    fleet = build_fleet(FleetConfig(shards=4, spec=spec))
    stream = market_stream(256, horizon, seed=2025, total_rate=12.0)
    # Spread the zipf head before replay: pin hot models off their
    # ring-assigned shards so no shard melts while others idle.
    fleet.partitioner.rebalance(
        {model.name: rate for model, rate in zip(stream.models, stream.rates)}
    )
    env = fleet.env
    start = time.perf_counter()
    result = fleet.run(stream)
    wall = time.perf_counter() - start
    require_drained(result)
    steps = env.steps_executed
    return {
        "ops_per_sec": steps / wall if wall > 0 else 0.0,
        "requests_per_sec": result.submitted / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "sim_steps": steps,
        "sim_end": env.now,
        "requests": result.submitted,
        "slo_attainment": round(result.slo_attainment, 6),
    }


def fleet_controller_replay(quick: bool = False) -> dict:
    """Fleet replay with the live controller armed (forecast policy).

    Same shape as :func:`fleet_replay` but with the whole catalog pinned
    to shard 0 and the controller loop running: per-model forecasts,
    live migrations, spillover, scaling hints.  Measures the control
    loop's overhead on the hot path and its decision throughput.
    """
    from repro.core import SystemSpec
    from repro.fleet import ControllerConfig, FleetConfig, build_fleet
    from repro.workload import market_stream

    horizon = 120.0 if quick else 840.0
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad"
        ),
        policies="aegaeon-slo-admission",
    )
    fleet = build_fleet(
        FleetConfig(
            shards=4,
            spec=spec,
            controller=ControllerConfig(policy="forecast"),
        )
    )
    stream = market_stream(256, horizon, seed=2025, total_rate=12.0)
    # Opposite of fleet_replay's pre-spread: concentrate everything on
    # shard 0 so the controller has real rebalancing work every tick.
    for model in stream.models:
        fleet.partitioner.pin(model.name, 0)
    env = fleet.env
    start = time.perf_counter()
    result = fleet.run(stream)
    wall = time.perf_counter() - start
    require_drained(result)
    steps = env.steps_executed
    return {
        "ops_per_sec": steps / wall if wall > 0 else 0.0,
        "requests_per_sec": result.submitted / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "sim_steps": steps,
        "sim_end": env.now,
        "requests": result.submitted,
        "slo_attainment": round(result.slo_attainment, 6),
        "migrations": result.controller["migrations"],
        "spills": result.controller["spills"],
    }


def fleet_replay_1m(quick: bool = False) -> dict:
    """Opt-in (``--suite fleet --full``): a 10^6-request fleet replay.

    The tentpole claim behind the continuation refactor: one process,
    one simulation clock, a million requests streamed through 8 testbed
    shards (128 GPUs) with bounded memory.  Requests are generated
    lazily and dropped at disposal, so RSS tracks in-flight concurrency,
    not trace length — the report records the process RSS high-water
    mark (``ru_maxrss``) as evidence.  ``ru_maxrss`` is a
    process-lifetime maximum, so run this scenario in a fresh process
    (the CLI does) for a tight bound; in-suite it is still a valid
    upper bound.

    ``quick`` shrinks to ~2*10^4 requests: same shape, smoke-sized.
    """
    from repro.core import SystemSpec
    from repro.fleet import FleetConfig, build_fleet
    from repro.workload import market_stream

    total_rate = 24.0
    n_requests = 20_000 if quick else 1_000_000
    horizon = n_requests / total_rate
    fleet = build_fleet(
        FleetConfig(shards=8, spec=SystemSpec(cluster="testbed"))
    )
    stream = market_stream(640, horizon, seed=2025, total_rate=total_rate)
    fleet.partitioner.rebalance(
        {model.name: rate for model, rate in zip(stream.models, stream.rates)}
    )
    env = fleet.env
    start = time.perf_counter()
    result = fleet.run(stream)
    wall = time.perf_counter() - start
    require_drained(result)
    steps = env.steps_executed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_sec": steps / wall if wall > 0 else 0.0,
        "requests_per_sec": result.submitted / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "sim_steps": steps,
        "sim_end": env.now,
        "requests": result.submitted,
        "slo_attainment": round(result.slo_attainment, 6),
        "rss_peak_mb": round(rss_mb, 1),
    }


SCENARIOS: dict[str, Callable[[bool], dict]] = {
    "kernel_event_throughput": kernel_event_throughput,
    "end_to_end_serving": end_to_end_serving,
    "switch_storm": switch_storm,
    "fleet_replay": fleet_replay,
    "fleet_controller_replay": fleet_controller_replay,
    "fleet_replay_1m": fleet_replay_1m,
}

#: Scenarios only run when the CLI is passed ``--full`` (minutes, not
#: seconds, at full size); never part of a plain suite run.
FULL_SCENARIOS: dict[str, tuple[str, ...]] = {
    "fleet": ("fleet_replay_1m",),
}

_FULL_ONLY = frozenset(
    name for names in FULL_SCENARIOS.values() for name in names
)

#: Scenario groups the CLI can select; the default "kernel" suite keeps
#: the original three (and the BENCH_kernel.json baseline) unchanged.
SUITES: dict[str, tuple[str, ...]] = {
    "kernel": ("kernel_event_throughput", "end_to_end_serving", "switch_storm"),
    "fleet": ("fleet_replay", "fleet_controller_replay"),
    "all": tuple(name for name in SCENARIOS if name not in _FULL_ONLY),
}


def gate_metric(result: dict) -> str:
    """The throughput field a scenario is gated on: requests served per
    wall second when it replays requests, else kernel events per second."""
    return "requests_per_sec" if "requests_per_sec" in result else "ops_per_sec"


def run_scenario(name: str, quick: bool = False, repeat: int = 3) -> dict:
    """Run one scenario ``repeat`` times and keep the fastest trial.

    Best-of-N damps scheduler noise; the fingerprint fields must agree
    across trials (they are pure functions of the scenario), so the
    fastest trial's dict is representative.
    """
    best: dict = {}
    for _ in range(max(1, repeat)):
        result = SCENARIOS[name](quick)
        if not best or result["wall_s"] < best["wall_s"]:
            best = result
    return best
