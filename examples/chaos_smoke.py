"""Chaos smoke run: seeded faults, runtime invariants, replay check.

For each fault seed, replays the acceptance workload (4-model market
mix on a 4-GPU Aegaeon pool) under a seeded :class:`FaultPlan` with the
runtime :class:`InvariantChecker` attached, twice, then once more
without it, and verifies that

* every invariant check passed (``serve`` raises otherwise),
* every submitted request landed in exactly one terminal ledger
  (finished, failed, or rejected),
* the two same-seed runs are byte-identical — faults are ordinary
  simulation events, so chaos does not cost reproducibility, and
* the unchecked run has the same fingerprint and kernel step count —
  the checker only observes.

Run:  python examples/chaos_smoke.py [seed ...]     (default: 101 202 303)
Exits non-zero on any violation; CI runs this as the chaos-smoke job.
"""

import os
import sys

from repro.chaos import FaultPlan
from repro.core import AegaeonConfig, SystemSpec, build_system
from repro.models import market_mix
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

DEFAULT_SEEDS = (101, 202, 303)


def run_once(fault_seed: int, invariants: bool = True):
    """One faulted serve; returns (ledger counts, replay fingerprint,
    kernel steps).  ``invariants=False`` runs without a checker, even
    under ``REPRO_INVARIANTS=1``."""
    env = Environment()
    plan = FaultPlan.seeded(
        fault_seed, horizon=40.0, count=4, instances=("decode1", "decode2")
    )
    suite_wide = None if invariants else os.environ.pop("REPRO_INVARIANTS", None)
    system = build_system(
        SystemSpec(
            config=AegaeonConfig(
                prefill_instances=1, decode_instances=3, cluster="h800-quad"
            ),
            faults=plan,
            invariants=invariants,
        ),
        env,
    )
    if suite_wide is not None:
        os.environ["REPRO_INVARIANTS"] = suite_wide
    assert (system.invariant_checker is not None) is invariants
    trace = materialize_trace(
        market_mix(4), [0.15] * 4, sharegpt(), horizon=40.0, seed=7
    )
    # warm=False so checkpoint fetches hit the disruptable remote path.
    result = system.serve(trace, warm=False)
    assert result.drained, f"{result.unaccounted} requests still in flight"
    registry = system.registry
    assert (
        registry.finished + registry.failed + registry.rejected
        == registry.submitted
    ), "request ledger does not balance"
    counts = {
        "submitted": registry.submitted,
        "finished": registry.finished,
        "failed": registry.failed,
        "rejected": registry.rejected,
        "faults": len(system.fault_injector.delivered),
        "sweeps": system.invariant_checker.checks_run if invariants else 0,
    }
    fingerprint = [
        (r.request_id, r.finish_time, tuple(r.token_times))
        for r in result.requests
    ]
    return counts, fingerprint, (env.steps_executed, env.steps_inlined)


def main() -> None:
    seeds = [int(arg) for arg in sys.argv[1:]] or list(DEFAULT_SEEDS)
    for seed in seeds:
        counts, first, steps = run_once(seed)
        _, second, _ = run_once(seed)
        assert first == second, f"fault seed {seed} not reproducible"
        _, unchecked, unchecked_steps = run_once(seed, invariants=False)
        assert unchecked == first, f"fault seed {seed}: the checker moved a request"
        assert unchecked_steps == steps, (
            f"fault seed {seed}: kernel steps {steps} with the checker, "
            f"{unchecked_steps} without"
        )
        plan = FaultPlan.seeded(
            seed, horizon=40.0, count=4, instances=("decode1", "decode2")
        )
        kinds = ", ".join(
            f"{kind} x{n}" for kind, n in sorted(plan.kind_counts().items())
        )
        print(
            f"fault seed {seed}: {kinds} | "
            f"{counts['finished']}/{counts['submitted']} finished, "
            f"{counts['failed']} failed, {counts['rejected']} rejected | "
            f"{counts['faults']} faults delivered, invariants held "
            f"({counts['sweeps']} full sweeps), replay identical with and "
            "without the checker"
        )


if __name__ == "__main__":
    main()
