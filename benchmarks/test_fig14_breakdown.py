"""Figure 14: request latency breakdown across setups.

Shares of total request latency spent in prefill waiting/execution,
decoding waiting/execution, and the control/data overheads of KV
management.  The paper's observations: prefill waiting stays controlled
as load grows (grouped FCFS), and decode waiting is spread through the
execution without violating SLOs (weighted round-robin); KV overheads
stay marginal.
"""

from _common import SYSTEMS, bench_scale, make_trace, run_system
from repro.analysis import format_table
from repro.core import DEFAULT_SLO

SETUPS = [(16, 0.1), (32, 0.1), (64, 0.1), (16, 0.5), (32, 0.5)]


def test_fig14_latency_breakdown(benchmark):
    setups = SETUPS if bench_scale() >= 1.0 else SETUPS[:2]

    def run():
        breakdowns = {}
        for index, (models, rps) in enumerate(setups):
            trace = make_trace(models, rps, seed=5025 + index)
            result = run_system(SYSTEMS["Aegaeon"](DEFAULT_SLO), trace)
            breakdowns[(models, rps)] = (
                result.latency_breakdown(),
                result.slo_attainment,
            )
        return breakdowns

    breakdowns = benchmark.pedantic(run, rounds=1, iterations=1)

    headers = [
        "setup",
        "prefill wait",
        "prefill exec",
        "decode wait",
        "decode exec",
        "control",
        "data",
        "SLO",
    ]
    rows = []
    for (models, rps), (breakdown, attainment) in breakdowns.items():
        shares = breakdown.as_dict()
        rows.append(
            [
                f"{models}x{rps}",
                *(f"{shares[key]:.1%}" for key in (
                    "prefill_waiting",
                    "prefill_execution",
                    "decoding_waiting",
                    "decoding_execution",
                    "control_overhead",
                    "data_overhead",
                )),
                f"{attainment:.1%}",
            ]
        )
    print()
    print(format_table(headers, rows, title="Figure 14: latency breakdown (Aegaeon)"))

    for (models, rps), (breakdown, _) in breakdowns.items():
        shares = breakdown.as_dict()
        total = sum(shares.values())
        assert abs(total - 1.0) < 1e-6
        # KV management overheads are marginal (§7.3).
        assert shares["control_overhead"] < 0.05
        assert shares["data_overhead"] < 0.10
        # Prefill waiting stays controlled (well under half of latency).
        assert shares["prefill_waiting"] < 0.5
