"""Figure 17: sensitivity to hardware and model scale (§7.4).

Left: a 4xA10 node (2 prefill + 2 decode, prefetch disabled because
24 GB cannot hold two models) serving 6-7B models, with TBT scaled 0.5x
(Strict) / 1x (Normal) / 2x (Loose).
Right: 72B models at TP=4 on an 8xH800 node (one prefill + one decode
instance), with TTFT scaled likewise, sweeping the aggregate rate.
"""

from dataclasses import replace

from _common import bench_horizon, bench_scale
from repro.analysis import format_table
from repro.core import AegaeonServer, DEFAULT_SLO
from repro.models import get_model, market_mix
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace


def test_fig17_left_a10_node(benchmark):
    model_counts = [4, 6, 8, 10] if bench_scale() >= 1.0 else [4, 6]
    scalings = [("Strict", 0.5), ("Normal", 1.0), ("Loose", 2.0)]

    def run():
        grid = {}
        for label, factor in scalings:
            slo = DEFAULT_SLO.scale_tbt(factor)
            for index, count in enumerate(model_counts):
                models = market_mix(count, min_b=6.0, max_b=7.9)
                trace = materialize_trace(
                    models, [0.1] * count, sharegpt(), bench_horizon(), seed=8025 + index
                )
                env = Environment()
                server = AegaeonServer.a10_testbed(env, slo=slo)
                grid[(label, count)] = server.serve(trace).slo_attainment
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for count in model_counts:
        rows.append(
            [count, *(f"{grid[(label, count)]:.1%}" for label, _ in scalings)]
        )
    print()
    print(
        format_table(
            ["#models", *(label for label, _ in scalings)],
            rows,
            title="Figure 17 (left): 4xA10 node, RPS=0.1, 6-7B models",
        )
    )
    # Loose tolerates more sharing than Strict at every model count.
    for count in model_counts:
        assert grid[("Loose", count)] >= grid[("Strict", count)] - 0.02
    # A10s still sustain decent attainment at moderate pooling.
    assert grid[("Normal", model_counts[0])] > 0.85


def test_fig17_right_72b_tp4(benchmark):
    rates = [0.4, 0.9, 1.4, 1.9] if bench_scale() >= 1.0 else [0.4, 0.9]
    scalings = [("Strict", 0.5), ("Normal", 1.0), ("Loose", 2.0)]
    base = get_model("Qwen-72B")
    models = [replace(base, name=f"Qwen-72B#{i}") for i in range(4)]

    def run():
        grid = {}
        for label, factor in scalings:
            slo = DEFAULT_SLO.scale_ttft(factor)
            for index, rate in enumerate(rates):
                trace = materialize_trace(
                    models,
                    [rate / len(models)] * len(models),
                    sharegpt(),
                    bench_horizon(),
                    seed=8125 + index,
                )
                env = Environment()
                server = AegaeonServer.tp4_testbed(env, slo=slo)
                grid[(label, rate)] = server.serve(trace).slo_attainment
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for rate in rates:
        rows.append(
            [rate, *(f"{grid[(label, rate)]:.1%}" for label, _ in scalings)]
        )
    print()
    print(
        format_table(
            ["rate (req/s)", *(label for label, _ in scalings)],
            rows,
            title="Figure 17 (right): 4x 72B models, TP=4, 8xH800",
        )
    )
    # 72B serving works at all, with similar SLO-scaling behaviour.
    assert grid[("Normal", rates[0])] > 0.85
    for rate in rates:
        assert grid[("Loose", rate)] >= grid[("Strict", rate)] - 0.02
