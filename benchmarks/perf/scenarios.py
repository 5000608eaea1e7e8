"""The tracked perf scenarios.

Each scenario function builds its problem, times the part under test
and returns a flat result dict with:

* ``wall_s``    — wall-clock seconds of the timed section, the figure
  the pair gate compares (``benchmarks/perf/run.py``);
* ``sim_steps`` — kernel events dispatched inside the timed section;
* ``sim_end`` (and ``requests`` where the scenario replays requests) —
  host-independent counters that tell a perf regression apart from a
  behaviour change.

Every scenario does the same work on both sides of a pair, so its wall
ratio is also its ratio of events or requests per second.
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

__all__ = ["FULL_SCENARIOS", "SCENARIOS"]


def kernel_event_throughput() -> dict:
    """Raw kernel throughput: timeout ping-pong across many processes.

    100 concurrent processes each advance through 20,000 timeouts while
    a canceller schedules and cancels a long timeout every fourth step —
    the lazy-cancel and single-waiter fast paths both sit on this loop.
    Bare ``env.run()`` drives the same single dispatch loop as
    ``run(until=...)``, so this measures the kernel that serving, fleet,
    and chaos runs use.  The size keeps one run above 2 s of wall time
    on a 2-vCPU host, long enough that scheduler noise is a small share.
    """
    n_procs = 100
    n_steps = 20_000

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
    return {"wall_s": wall, "sim_steps": env.steps_executed, "sim_end": env.now}


def switch_storm() -> dict:
    """Worst-case auto-scaling churn: 12 models sharing 1+1 instances.

    Every decode round rotates through many models, so the run is
    dominated by scale-to/swap traffic — the KV-transfer manager, slab
    allocator, and move-list reclaim hot paths.  The 1,200 s trace keeps
    one run above 0.5 s of wall time on a 2-vCPU host.
    """
    n_models = 12
    env = Environment()
    server = AegaeonServer(
        env,
        Cluster.homogeneous(env, H800, 1, 2),
        AegaeonConfig(prefill_instances=1, decode_instances=1),
    )
    models = market_mix(n_models)
    trace = materialize_trace(
        models, [0.15] * n_models, sharegpt(), horizon=1200.0, seed=7
    )
    start = time.perf_counter()
    result = server.serve(trace)
    wall = time.perf_counter() - start
    require_drained(result)
    return {
        "wall_s": wall,
        "sim_steps": env.steps_executed,
        "sim_end": env.now,
        "requests": len(result.requests),
    }


def fleet_replay_1m() -> dict:
    """Opt-in (``--full``): a 10^6-request fleet replay.

    One process, one simulation clock, a million requests streamed
    through 8 testbed shards (128 GPUs).  Requests are generated lazily
    and dropped at disposal, so per-request state tracks in-flight
    concurrency, not trace length.  Only the switch history still grows
    with the trace: every engine logs each model switch in the ``array``
    columns of its ``scale_history`` (a ``SwitchLog``), about 44 bytes
    a switch, and this replay switches about 17,900 times per 50,000
    requests.  Between 50,000 and 100,000 requests RSS grows about
    1 MB; the report records the process RSS high-water mark
    (``ru_maxrss``).
    ``ru_maxrss`` is a process-lifetime maximum, so the pair gate runs
    every scenario in a fresh process.
    """
    from repro.core import SystemSpec
    from repro.fleet import FleetConfig, build_fleet
    from repro.workload import market_stream

    total_rate = 24.0
    horizon = 1_000_000 / total_rate
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
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": wall,
        "sim_steps": env.steps_executed,
        "sim_end": env.now,
        "requests": result.submitted,
        "rss_peak_mb": round(rss_mb, 1),
    }


#: Scenarios every run times, in order.
SCENARIOS: dict[str, Callable[[], dict]] = {
    "kernel_event_throughput": kernel_event_throughput,
    "switch_storm": switch_storm,
}

#: Scenarios only ``--full`` adds: minutes per run, not seconds.
FULL_SCENARIOS: dict[str, Callable[[], dict]] = {
    "fleet_replay_1m": fleet_replay_1m,
}
