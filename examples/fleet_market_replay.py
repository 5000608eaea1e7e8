"""Fleet-scale market replay: 10^5 requests, 8 shards, 128 GPUs, one process.

The paper's market (Figure 1a) at fleet scale: the model catalog is
consistent-hashed across 8 Aegaeon shards — each a full testbed pool of
16 H800s — and a single streaming pump replays a ~10^5-request market
trace against all of them on one simulation clock.  Requests are
generated lazily (bounded lookahead) and dropped at disposal after
folding into per-shard streaming stats, so peak memory tracks in-flight
concurrency, not trace length; the run ends with fleet-rolled p50/p99
TTFT/TBT, per-token SLO attainment, and the market-rate $/token.

``--controller {off,static,forecast}`` arms the live fleet controller
(``repro.fleet.controller``): per-model EWMA arrival forecasts drive
mid-run catalog migrations, admission rejections spill to less-loaded
shards, and the rollup gains ``spilled``/``migrations`` columns.
``--compare`` runs the load-skewed acceptance experiment — the whole
catalog pinned to shard 0 — under the observe-only ``static`` policy and
again under ``forecast``, and reports the SLO-attainment delta.

The printed digest is a hash over every shard's full stats: two runs
with the same seed and controller print the same digest
(byte-reproducibility at fleet scale, controller included).

Run:  python examples/fleet_market_replay.py            (~2-4 min)
      python examples/fleet_market_replay.py --quick    (CI-sized)
      python examples/fleet_market_replay.py --quick --controller forecast
      python examples/fleet_market_replay.py --compare  (skewed A/B)
"""

import argparse
import json
import resource
import sys
import time

from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import ControllerConfig, FleetConfig, build_fleet
from repro.workload import market_stream


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--models", type=int, default=640)
    parser.add_argument("--total-rate", type=float, default=24.0)
    parser.add_argument("--horizon", type=float, default=4200.0)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--controller", choices=("off", "static", "forecast"), default="off",
        help="arm the live fleet controller with this policy",
    )
    parser.add_argument(
        "--skewed", action="store_true",
        help="pin the whole catalog to shard 0 (worst-case hot spot) "
        "instead of load-aware pre-replay pins",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="run the skewed acceptance experiment: static vs forecast "
        "controller on one overloaded shard pool",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write the fleet rollup (plus controller summary) as JSON",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink to a ~1e3-request run (smoke/CI)",
    )
    args = parser.parse_args()
    if args.quick:
        args.shards, args.models, args.horizon = 2, 64, 180.0
        args.total_rate = 6.0
    return args


def build_and_run(args, *, policy, spec, skewed):
    """One replay; returns the fleet and its ServingResult (stream is
    rebuilt per run)."""
    stream = market_stream(
        args.models, args.horizon, seed=args.seed, total_rate=args.total_rate
    )
    controller = None if policy == "off" else ControllerConfig(policy=policy)
    fleet = build_fleet(
        FleetConfig(shards=args.shards, spec=spec, controller=controller)
    )
    if skewed:
        # Worst-case hot spot: every model (and so all load) lands on
        # shard 0; only the controller can move it anywhere else.
        for model in stream.models:
            fleet.partitioner.pin(model.name, 0)
    else:
        # The zipf head would otherwise concentrate on whichever shards
        # the ring hashes the hot models to; the rebalance hook pins
        # them apart before the replay starts.
        fleet.partitioner.rebalance(
            {model.name: rate for model, rate in zip(stream.models, stream.rates)}
        )
    result = fleet.run(stream)
    check_identities(fleet, result)
    return fleet, result


def check_identities(fleet, result):
    """The identities every run must close: nothing lost, nothing retained."""
    total = result.rollup.total
    # Every request is folded exactly once, shard by shard: at its
    # disposition, or at the deadline if it is still in flight then.
    for shard in fleet.shards:
        stats = shard.stats
        assert (
            stats.finished + stats.failed + stats.rejected + stats.spilled
            + shard.system.registry.in_flight
            == stats.requests
        )
    in_flight = sum(shard.system.registry.in_flight for shard in fleet.shards)
    assert result.unaccounted == in_flight
    # Folds == pump submissions + spill re-submissions.
    assert total.requests == result.submitted + total.spilled
    if result.drained:
        # Fully drained: the streaming proxies hold nothing back.
        assert in_flight == 0
        assert all(not shard.system.proxy.live for shard in fleet.shards)
    assert all(not shard.system.finished for shard in fleet.shards)


def print_summary(result, wall):
    summary = result.summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\nreplayed {summary['requests']:,} requests in {wall:.1f}s wall")
    print(
        f"  finished {summary['finished']:,}  failed {summary['failed']:,}  "
        f"rejected {summary['rejected']:,}  spilled {summary['spilled']:,}  "
        f"migrations {summary['migrations']:,}"
    )
    print(f"  SLO attainment  {summary['slo_attainment']:.4f}")
    print(
        f"  TTFT p50/p99    {summary['ttft_p50'] * 1e3:.1f} / "
        f"{summary['ttft_p99'] * 1e3:.1f} ms"
    )
    print(
        f"  TBT  p50/p99    {summary['tbt_p50'] * 1e3:.2f} / "
        f"{summary['tbt_p99'] * 1e3:.2f} ms"
    )
    print(
        f"  cost            ${summary['cost_usd']:.2f} "
        f"({summary['gpu_hours']:.1f} GPU-hours, "
        f"${1e6 * summary['cost_per_token']:.2f}/Mtok)"
    )
    if result.controller is not None:
        ctrl = result.controller
        print(
            f"  controller      {ctrl['policy']}: {ctrl['ticks']} ticks, "
            f"{ctrl['migrations']} migrations, {ctrl['spills']} spills"
        )
    print(f"  peak RSS        {peak_rss_mb:.0f} MB")
    print(f"  digest          {result.digest()}")
    return summary


def write_rollup(path, result):
    payload = {
        "summary": result.summary(),
        "shards": [stats.as_dict() for stats in result.shard_stats],
        "controller": result.controller,
        "digest": result.digest(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    print(f"  rollup json     {path}")


def run_compare(args):
    """The acceptance experiment: on a load-skewed trace, the forecast
    controller must beat the observe-only static policy on per-token SLO
    attainment — migrations and spillover visible in the rollup."""
    # An overloaded small pool, so the skew actually hurts: 1+3 H800s
    # per shard, SLO-aware admission shedding when pressure builds.
    args.shards = 2
    args.models = 16
    args.total_rate = 40.0
    args.horizon = 180.0 if args.quick else 600.0
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad"
        ),
        policies="aegaeon-slo-admission",
    )
    print(
        f"compare: {args.shards} shards x 4 GPUs, {args.models} models "
        f"pinned to shard 0, {args.total_rate:.0f} req/s over "
        f"{args.horizon:.0f}s (seed {args.seed})"
    )
    attainment = {}
    for policy in ("static", "forecast"):
        print(f"\n--- controller={policy} ---")
        start = time.perf_counter()
        fleet, result = build_and_run(args, policy=policy, spec=spec, skewed=True)
        summary = print_summary(result, time.perf_counter() - start)
        attainment[policy] = summary["slo_attainment"]
        if args.out:
            write_rollup(f"{args.out}.{policy}.json", result)
    delta = attainment["forecast"] - attainment["static"]
    print(
        f"\nper-token SLO attainment: static {attainment['static']:.4f} "
        f"-> forecast {attainment['forecast']:.4f} ({delta:+.4f})"
    )
    if delta <= 0:
        print("error: forecast controller did not improve on static")
        return 1
    return 0


def main():
    args = parse_args()
    if args.compare:
        return run_compare(args)

    stream = market_stream(
        args.models, args.horizon, seed=args.seed, total_rate=args.total_rate
    )
    expected = stream.expected_requests
    spec = SystemSpec(cluster="testbed")
    start = time.perf_counter()
    fleet, result = build_and_run(
        args, policy=args.controller, spec=spec, skewed=args.skewed
    )
    wall = time.perf_counter() - start
    print(
        f"fleet: {args.shards} shards x {fleet.shards[0].system.gpu_count} "
        f"GPUs = {fleet.gpu_count} GPUs; catalog {args.models} models "
        f"(controller={args.controller}, "
        f"{'skewed' if args.skewed else 'load-aware pins'})"
    )
    print(
        f"workload: ~{expected:,.0f} requests over {args.horizon:,.0f}s "
        f"(streamed, nothing materialized)"
    )
    summary = print_summary(result, wall)
    if args.out:
        write_rollup(args.out, result)
    if not args.quick and summary["requests"] < 100_000:
        print("warning: full-scale run produced fewer than 1e5 requests")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
