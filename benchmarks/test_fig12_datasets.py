"""Figure 12: end-to-end SLO attainment on alternative datasets.

ShareGPT-ix2 doubles input lengths; ShareGPT-ox2 doubles output lengths.
Longer outputs increase HOL blocking for request-level auto-scaling, so
Aegaeon's lead widens (up to 2.5x goodput on ox2); longer inputs cost
every system a little, the request-level baselines most.
"""

from _common import SYSTEMS, bench_scale, make_trace, run_system
from repro.analysis import format_table
from repro.core import DEFAULT_SLO
from repro.workload import sharegpt_ix2, sharegpt_ox2

COMPARED = ["Aegaeon", "ServerlessLLM", "ServerlessLLM+"]


def _sweep(dataset, model_counts, rps, seed_offset):
    results = {name: [] for name in COMPARED}
    for index, count in enumerate(model_counts):
        trace = make_trace(count, rps, dataset=dataset, seed=3025 + seed_offset + index)
        for name in COMPARED:
            result = run_system(SYSTEMS[name](DEFAULT_SLO), trace)
            results[name].append((count, result.slo_attainment))
    return results


def _print(title, results):
    xs = [x for x, _ in next(iter(results.values()))]
    rows = []
    for x in xs:
        rows.append([x, *(f"{dict(results[n])[x]:.1%}" for n in results)])
    print()
    print(format_table(["#models", *results.keys()], rows, title=title))


def test_fig12a_input_x2_rps01(benchmark):
    counts = [20, 40, 60] if bench_scale() >= 1.0 else [20, 40]

    def run():
        return _sweep(sharegpt_ix2(), counts, 0.1, 0)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    _print("Figure 12(a): ShareGPT-ix2, RPS=0.1", results)
    aegaeon, sllm = dict(results["Aegaeon"]), dict(results["ServerlessLLM"])
    top = counts[-1]
    assert aegaeon[top] > sllm[top]


def test_fig12b_output_x2_rps01(benchmark):
    counts = [20, 40, 60] if bench_scale() >= 1.0 else [20, 40]

    def run():
        return _sweep(sharegpt_ox2(), counts, 0.1, 10)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    _print("Figure 12(b): ShareGPT-ox2, RPS=0.1", results)
    aegaeon, sllm = dict(results["Aegaeon"]), dict(results["ServerlessLLM"])
    # Longer decoding aggravates HOL blocking for request-level scaling:
    # Aegaeon's margin is larger than on the base dataset.
    assert aegaeon[40] > sllm[40] + 0.10


def test_fig12cd_rps05(benchmark):
    counts = [16, 24, 32] if bench_scale() >= 1.0 else [16]

    def run():
        return {
            "ix2": _sweep(sharegpt_ix2(), counts, 0.5, 20),
            "ox2": _sweep(sharegpt_ox2(), counts, 0.5, 30),
        }

    both = benchmark.pedantic(run, rounds=1, iterations=1)
    _print("Figure 12(c): ShareGPT-ix2, RPS=0.5", both["ix2"])
    _print("Figure 12(d): ShareGPT-ox2, RPS=0.5", both["ox2"])
    for key in ("ix2", "ox2"):
        aegaeon = dict(both[key]["Aegaeon"])
        sllm = dict(both[key]["ServerlessLLM"])
        assert aegaeon[counts[-1]] > sllm[counts[-1]]
