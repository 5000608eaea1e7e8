"""Determinism under chaos: faults are part of the reproducible state.

Two properties anchor the chaos subsystem's value:

* **Same seed, same plan ⇒ byte-identical runs.**  A faulted serve is
  exactly as deterministic as a clean one — the injector delivers every
  disruption through ordinary simulation events, so the full observable
  surface (metric snapshot, kernel step count, per-request token times)
  reproduces bit-for-bit.
* **Different fault seeds ⇒ bounded, documented divergence.**  Fault
  seeds change *which* disruptions land, and outcomes shift (end time,
  requeues), but the envelope is pinned by the golden fixture
  ``tests/golden/chaos_divergence.json`` — regenerate it with
  ``python -m tests.test_chaos_determinism`` after an intentional
  serving-stack change.
"""

import json
from pathlib import Path

from repro.chaos import FaultPlan
from repro.core import AegaeonConfig, SystemSpec, build_system
from repro.models import market_mix
from repro.obs import ObsConfig
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

from .test_determinism import _canonical
from .test_same_timestamp_ordering import snapshot_of

GOLDEN = Path(__file__).parent / "golden" / "chaos_divergence.json"

#: The fixed workload every run in this module replays.
TRACE_SEED = 7
HORIZON = 40.0


def faulted_run(fault_seed=None, kernel=Environment):
    """One chaos serve; ``fault_seed=None`` runs fault-free."""
    env = kernel()
    plan = (
        FaultPlan.seeded(
            fault_seed, horizon=HORIZON, count=4,
            instances=("decode1", "decode2"),
        )
        if fault_seed is not None
        else None
    )
    system = build_system(
        SystemSpec(
            config=AegaeonConfig(
                prefill_instances=1,
                decode_instances=3,
                cluster="h800-quad",
                obs=ObsConfig.metrics_only(),
            ),
            faults=plan,
            invariants=True,
        ),
        env,
    )
    trace = materialize_trace(
        market_mix(4), [0.15] * 4, sharegpt(), horizon=HORIZON, seed=TRACE_SEED
    )
    result = system.serve(trace, warm=False)
    return env, system, result


def full_snapshot(fault_seed):
    """Everything observable about a run, for bitwise comparison."""
    return snapshot_of(*faulted_run(fault_seed))


def divergence_summary(fault_seed):
    """The coarse outcome row pinned by the golden fixture."""
    env, system, result = faulted_run(fault_seed)
    registry = system.registry
    injector = system.fault_injector
    return {
        "plan_kinds": injector.plan.kind_counts(),
        "submitted": registry.submitted,
        "finished": registry.finished,
        "failed": registry.failed,
        "rejected": registry.rejected,
        "faults_delivered": len(injector.delivered),
        "faults_skipped": len(injector.skipped),
        "orphans_requeued": system.orphans_requeued,
        "end_time": round(result.end_time, 6),
        "invariant_checks": system.invariant_checker.checks_run,
    }


class TestSameSeedIdentical:
    def test_faulted_run_is_bitwise_repeatable(self):
        assert full_snapshot(2) == full_snapshot(2)

    def test_fault_free_attach_changes_nothing(self):
        # An injector with no faults must be a pure no-op on the run.
        clean = full_snapshot(None)
        env = Environment()
        system = build_system(
            SystemSpec(
                config=AegaeonConfig(
                    prefill_instances=1,
                    decode_instances=3,
                    cluster="h800-quad",
                    obs=ObsConfig.metrics_only(),
                ),
                faults=FaultPlan(),
                invariants=True,
            ),
            env,
        )
        trace = materialize_trace(
            market_mix(4), [0.15] * 4, sharegpt(), horizon=HORIZON, seed=TRACE_SEED
        )
        result = system.serve(trace, warm=False)
        # The injector registers its (zero) chaos counters; everything
        # else on the observable surface must be untouched.
        metrics = {
            key: value
            for key, value in _canonical(result.metrics).items()
            if not key.startswith("chaos/")
        }
        assert metrics == clean["metrics"]
        assert result.end_time == clean["end_time"]

    def test_faults_actually_perturb_the_run(self):
        # Fault seed 2 includes an instance kill: the faulted run must
        # diverge from the clean one — otherwise injection is a no-op.
        assert full_snapshot(2)["requests"] != full_snapshot(None)["requests"]


class TestCrossSeedDivergence:
    def test_outcomes_match_golden_fixture(self):
        fixture = json.loads(GOLDEN.read_text())
        for seed, expected in fixture["seeds"].items():
            assert divergence_summary(int(seed)) == expected, (
                f"fault seed {seed} diverged from the golden envelope; "
                "if the serving stack changed intentionally, regenerate "
                "with `python -m tests.test_chaos_determinism`"
            )

    def test_divergence_stays_bounded(self):
        fixture = json.loads(GOLDEN.read_text())
        floor = fixture["bounds"]["min_finished_fraction"]
        for seed in fixture["seeds"]:
            summary = divergence_summary(int(seed))
            assert summary["finished"] / summary["submitted"] >= floor
            assert (
                summary["finished"] + summary["failed"] + summary["rejected"]
                == summary["submitted"]
            )


def regenerate_golden():
    """Rewrite the golden fixture from the current serving stack."""
    fixture = {
        "description": (
            "Cross-fault-seed divergence envelope for the chaos "
            "determinism suite: one fixed market-mix trace (4 models, "
            "rate 0.15, horizon 40 s, trace seed 7) run under "
            "FaultPlan.seeded(seed, horizon=40, count=4, "
            "instances=('decode1','decode2')) for three fault seeds. "
            "The simulation is deterministic, so these exact values "
            "must reproduce on any machine; regenerate with "
            "`python -m tests.test_chaos_determinism` after an "
            "intentional serving-stack change."
        ),
        "bounds": {"min_finished_fraction": 0.9},
        "seeds": {str(seed): divergence_summary(seed) for seed in (1, 2, 3)},
    }
    GOLDEN.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate_golden()
    print(f"rewrote {GOLDEN}")
