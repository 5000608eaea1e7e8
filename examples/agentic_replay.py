"""Agentic DAG replay: session pipelines, bundle A/B, cost-routed variants.

A seeded agentic workload (``repro.workload.agentic``): Poisson session
arrivals, each session a 2-5 stage request DAG over one agent's model
variants (a small draft model and the large flagship), stage N+1
submitted only when stage N finishes (think-time gap included), all
driven by a :class:`~repro.core.SessionCoordinator` as ordinary sim
events, so every replay is byte-reproducible per seed — the printed
digest covers the rollup stats *and* the per-session conservation rows.

``--compare`` is the acceptance experiment, one serving pool per bundle
on the same trace:

* ``aegaeon`` (token-level scheduling, always-largest routing) must beat
  the ``serverless-llm`` baseline on per-token SLO attainment — the
  multi-model, bursty DAG traffic is exactly where request-level
  scaling's swap storms hurt.
* ``aegaeon-cost-router`` must keep every session's realized spend
  within the configured budget while beating always-largest routing on
  modeled $/token (easy stages ride the small variant).

Run:  python examples/agentic_replay.py             (single replay)
      python examples/agentic_replay.py --compare   (acceptance A/B)
      python examples/agentic_replay.py --quick --compare --out r.json
"""

import argparse
import json
import sys
import time

from repro.core import AegaeonConfig, SessionCoordinator, SystemConfig, SystemSpec
from repro.fleet import FleetConfig, build_fleet
from repro.policy import CostConstrainedRouter, get_bundle, stage_cost_usd
from repro.workload import AgenticConfig, agent_variant_groups, agentic_stream

#: The serving pool every bundle gets: one 4-GPU H800 node.
GPUS = 4


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--session-rate", type=float, default=2.0)
    parser.add_argument("--horizon", type=float, default=300.0)
    parser.add_argument("--agents", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--bundle", default="aegaeon",
        help="policy bundle for the single-replay mode",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="run the acceptance A/B: aegaeon vs serverless-llm vs "
        "aegaeon-cost-router on one DAG trace",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write per-bundle rollups (summary + stats) as JSON",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink to a CI-sized run",
    )
    args = parser.parse_args()
    if args.quick:
        args.horizon, args.session_rate, args.agents = 120.0, 1.5, 6
    return args


def make_stream(args):
    """The shared trace: same seed, same DAGs, for every bundle."""
    return agentic_stream(
        AgenticConfig(
            session_rate=args.session_rate,
            horizon=args.horizon,
            seed=args.seed,
            agents=args.agents,
        ),
        groups=agent_variant_groups(args.agents),
    )


def build_spec(bundle: str) -> SystemSpec:
    """One pool per bundle, GPUS GPUs each, so the A/B is like for like."""
    if bundle.startswith("serverless-llm"):
        return SystemSpec(
            system=bundle,
            config=SystemConfig(cluster="h800-quad"),
            policies=bundle,
        )
    return SystemSpec(
        system="aegaeon",
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=GPUS - 1, cluster="h800-quad"
        ),
        policies=bundle,
    )


def run_bundle(args, bundle: str):
    """One replay of the shared trace under ``bundle``; returns a report."""
    stream = make_stream(args)
    fleet = build_fleet(FleetConfig(shards=1, spec=build_spec(bundle)))
    system = fleet.shards[0].system
    coordinator = SessionCoordinator(fleet.env, stream.spec_of, obs=system.obs)
    fleet.attach_sessions(coordinator)
    start = time.perf_counter()
    result = fleet.run(coordinator.wrap_stream(stream))
    wall = time.perf_counter() - start

    (stats,) = result.shard_stats
    check_identities(system, coordinator, stats)
    spend = CostConstrainedRouter.spend_of(system)
    tunables = system.policies.tunables
    return {
        "bundle": bundle,
        "wall": wall,
        # Attainment, cost, drain state and the session rollup.
        "summary": result.summary(),
        "stats": stats.as_dict(),
        "routed_spend_usd": sum(spend.values()),
        "max_session_spend_usd": max(spend.values()) if spend else 0.0,
        "budget_usd": tunables.router_session_budget_usd,
        "router_counts": dict(CostConstrainedRouter.counts_of(system)),
        "digest": result.digest(),
    }


def check_identities(system, coordinator, stats):
    """Conservation every replay must close, session layer included."""
    s = coordinator.stats
    assert s.stages_submitted == (
        s.stages_finished + s.stages_failed + s.stages_rejected
    )
    assert s.sessions_started == s.sessions_completed + s.sessions_aborted
    assert coordinator.drained() and not coordinator._live
    assert stats.finished + stats.failed + stats.rejected == stats.requests
    assert stats.requests == system.registry.submitted == s.stages_submitted


def always_largest_spend(args) -> tuple[float, int]:
    """Modeled spend of the un-routed trace (every stage on its default,
    largest variant) — the router's $/token baseline."""
    stream = make_stream(args)
    total, tokens = 0.0, 0
    seen = set()
    rate = get_bundle("aegaeon-cost-router").tunables.router_usd_per_mtok_b
    for root in stream:
        if root.plan.session in seen:
            continue
        seen.add(root.plan.session)
        for stage in root.plan.stages:
            spec = stream.spec_of(stage.model)
            total += stage_cost_usd(
                stage.input_tokens, stage.output_tokens, spec.params_b, rate
            )
            tokens += stage.input_tokens + stage.output_tokens
    return total, tokens


def print_report(report):
    summary = report["summary"]
    s = summary["sessions"]["stats"]
    print(
        f"  sessions {s['sessions_started']:>4} "
        f"(completed {s['sessions_completed']}, aborted {s['sessions_aborted']})"
        f"  stages {s['stages_submitted']}"
    )
    print(
        f"  SLO attainment  {summary['slo_attainment']:.4f}   "
        f"tokens {summary['tokens_generated']:,}"
    )
    cpt = summary["cost_per_token"]
    print(
        f"  market cost     ${summary['cost_usd']:.2f} "
        f"(${1e6 * cpt:.2f}/Mtok serving)" if cpt else "  market cost     n/a"
    )
    counts = report["router_counts"]
    if any(counts.values()):
        print(
            f"  router          kept {counts['kept']} "
            f"downgraded {counts['downgraded']} upgraded {counts['upgraded']} "
            f"shed {counts['shed']}; max session spend "
            f"${report['max_session_spend_usd']:.6f} "
            f"(budget ${report['budget_usd']:.6f})"
        )
    print(f"  wall            {report['wall']:.1f}s")
    print(f"  digest          {report['digest']}")


def write_rollup(path, reports):
    with open(path, "w") as handle:
        json.dump(reports, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    print(f"\nrollup json     {path}")


def run_compare(args):
    """The acceptance experiment (see module docstring)."""
    print(
        f"compare: {args.agents} agents x 2 variants on {GPUS} H800s, "
        f"{args.session_rate:g} sessions/s over {args.horizon:.0f}s "
        f"(seed {args.seed})"
    )
    reports = {}
    for bundle in ("serverless-llm", "aegaeon", "aegaeon-cost-router"):
        print(f"\n--- bundle={bundle} ---")
        reports[bundle] = run_bundle(args, bundle)
        print_report(reports[bundle])
    if args.out:
        write_rollup(args.out, reports)

    failures = []
    aeg = reports["aegaeon"]["summary"]["slo_attainment"]
    sll = reports["serverless-llm"]["summary"]["slo_attainment"]
    print(
        f"\nper-token SLO attainment: serverless-llm {sll:.4f} "
        f"vs aegaeon {aeg:.4f} ({aeg - sll:+.4f})"
    )
    if aeg <= sll:
        failures.append("aegaeon did not beat serverless-llm on attainment")

    router = reports["aegaeon-cost-router"]
    baseline_spend, tokens = always_largest_spend(args)
    routed_spend = router["routed_spend_usd"]
    print(
        f"modeled request spend: always-largest ${baseline_spend:.4f} "
        f"vs routed ${routed_spend:.4f} "
        f"({1e6 * baseline_spend / tokens:.2f} -> "
        f"{1e6 * routed_spend / tokens:.2f} $/Mtok, "
        f"{100 * (1 - routed_spend / baseline_spend):.0f}% saved)"
    )
    if routed_spend >= baseline_spend:
        failures.append("router did not improve $/token vs always-largest")
    if router["max_session_spend_usd"] > router["budget_usd"] + 1e-12:
        failures.append("a session exceeded the router budget")

    for failure in failures:
        print(f"error: {failure}")
    return 1 if failures else 0


def main():
    args = parse_args()
    if args.compare:
        return run_compare(args)
    print(
        f"agentic replay: bundle={args.bundle}, {args.agents} agents, "
        f"{args.session_rate:g} sessions/s over {args.horizon:.0f}s "
        f"(seed {args.seed})"
    )
    report = run_bundle(args, args.bundle)
    print_report(report)
    if args.out:
        write_rollup(args.out, {args.bundle: report})
    return 0


if __name__ == "__main__":
    sys.exit(main())
