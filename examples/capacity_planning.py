"""Capacity planning with the built-in pool planner.

Given a workload (models + rates + SLO), `repro.analysis.plan_pool`
sweeps candidate prefill/decode splits and returns the smallest pool
meeting the attainment target — the programmatic form of the paper's
§7.5 provisioning question.  This example plans pools for three traffic
levels and prints the resulting GPU counts and savings.

Run:  python examples/capacity_planning.py
"""

from repro.analysis import format_table, plan_pool
from repro.core import DEFAULT_SLO
from repro.hardware import H800
from repro.models import market_mix
from repro.workload import sharegpt, materialize_trace

MODEL_COUNT = 16
HORIZON = 120.0


def main() -> None:
    rows = []
    for label, rate in [("light", 0.02), ("moderate", 0.08), ("heavy", 0.25)]:
        models = market_mix(MODEL_COUNT)
        trace = materialize_trace(
            models, [rate] * MODEL_COUNT, sharegpt(), HORIZON, seed=31
        )
        plan = plan_pool(trace, H800, slo=DEFAULT_SLO, threshold=0.90)
        if plan is None:
            rows.append((label, f"{rate} req/s", "-", "not satisfiable", "-"))
            continue
        # The planner discards the results of the candidates it rejects;
        # the plan it returns must come from a run that drained.
        assert plan.result.drained, (
            f"{plan.result.unaccounted} requests still in flight"
        )
        rows.append(
            (
                label,
                f"{rate} req/s/model",
                str(plan),
                f"{plan.attainment:.1%}",
                f"{plan.saving_versus_dedicated(MODEL_COUNT):.0%}",
            )
        )
    print(
        format_table(
            ["traffic", "per-model rate", "planned pool", "SLO", "saving vs dedicated"],
            rows,
            title=f"Pool plans for {MODEL_COUNT} models (TTFT 10s / TBT 100ms)",
        )
    )
    print(
        "\nHeavier traffic needs more instances; the saving shrinks as the"
        "\npool approaches one GPU per active model (Theorem 3.1's bound)."
    )


if __name__ == "__main__":
    main()
