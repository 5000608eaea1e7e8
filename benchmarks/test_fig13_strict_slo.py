"""Figure 13: end-to-end SLO attainment under stricter SLOs.

Keeping the Figure 11(a) setup (RPS = 0.1) while scaling the TTFT/TBT
targets to 0.5x, 0.3x and 0.2x (down to 2 s / 20 ms).  Expected shape:
Aegaeon keeps its lead at 0.5x and 0.3x; at 0.2x the slack that
token-level scheduling exploits vanishes and static multiplexing
(MuxServe, zero switch cost) takes over — though Aegaeon still beats
request-level ServerlessLLM.
"""

from _common import SYSTEMS, bench_scale, make_trace, run_system
from repro.analysis import format_table
from repro.core import DEFAULT_SLO

COMPARED = ["Aegaeon", "ServerlessLLM", "MuxServe"]


def _sweep(factor, model_counts, seed_offset):
    slo = DEFAULT_SLO.scale(factor)
    results = {name: [] for name in COMPARED}
    for index, count in enumerate(model_counts):
        trace = make_trace(count, 0.1, seed=4025 + seed_offset + index)
        for name in COMPARED:
            result = run_system(SYSTEMS[name](slo), trace)
            results[name].append((count, result.slo_attainment))
    return results


def test_fig13_stricter_slos(benchmark):
    model_counts = [20, 32, 40, 60] if bench_scale() >= 1.0 else [20, 32]
    factors = [0.5, 0.3, 0.2]

    def run():
        return {
            factor: _sweep(factor, model_counts, index * 10)
            for index, factor in enumerate(factors)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    for factor in factors:
        grid = results[factor]
        rows = []
        for count in model_counts:
            rows.append(
                [count, *(f"{dict(grid[name])[count]:.1%}" for name in COMPARED)]
            )
        slo = DEFAULT_SLO.scale(factor)
        print()
        print(
            format_table(
                ["#models", *COMPARED],
                rows,
                title=f"Figure 13 ({factor}x SLO = {slo}):",
            )
        )

    # 0.5x: Aegaeon still leads request-level scaling at the highest
    # model count (where HOL blocking dominates).
    half = results[0.5]
    top = model_counts[-1]
    assert dict(half["Aegaeon"])[top] > dict(half["ServerlessLLM"])[top]
    # The Figure 13 crossover: at the strictest SLO the slack that
    # token-level scheduling exploits vanishes, and zero-switch-cost
    # multiplexing (MuxServe) comes out on top of Aegaeon.
    strictest = results[0.2]
    assert dict(strictest["MuxServe"])[32] >= dict(strictest["Aegaeon"])[32]
    # Stricter SLOs monotonically reduce Aegaeon's attainment.
    for count in model_counts:
        assert (
            dict(results[0.2]["Aegaeon"])[count]
            <= dict(results[0.5]["Aegaeon"])[count] + 0.02
        )
    # NOTE (recorded in EXPERIMENTS.md): unlike the paper, our
    # ServerlessLLM holds up better than Aegaeon at 0.3x/0.2x mid-range
    # model counts, because the simulated service times are shorter than
    # the paper's production fit, which deflates the active-model count
    # that drives ServerlessLLM's HOL blocking.
