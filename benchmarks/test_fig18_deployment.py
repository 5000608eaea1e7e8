"""Figure 18 + §7.5: production deployment study.

The beta deployment serves 28 small (1.8-7B, TP=1) and 19 large
(32-72B, TP=4) models with arrival rates in [0.01, 1.13] (mean 0.037) on
213 H20 GPUs — models that previously needed 1,192 dedicated GPUs, an
82% saving.  GPU utilization rises from 13.3%-33.9% (dedicated, low /
high load) to ~48% under Aegaeon.

This bench reproduces both numbers at reduced scale: it sizes a
dedicated deployment versus an Aegaeon pool for a deployment-shaped
workload, and measures serving-engine utilization before/after.
"""

import numpy as np

from _common import bench_horizon
from repro.analysis import expected_active_models, format_table
from repro.baselines import DedicatedServing
from repro.core import AegaeonConfig, AegaeonServer, DEFAULT_SLO
from repro.engine import EngineConfig
from repro.hardware import Cluster, H20
from repro.models import market_mix
from repro.sim import Environment
from repro.workload import deployment_rates, sharegpt, materialize_trace

# Reduced-scale deployment: small-model pool only (TP=1), the paper's
# 28-model tier.  Redundancy mirrors production practice (§7.5: both
# deployments over-provision versus the bare minimum).
MODEL_COUNT = 28


def _deployment_trace(seed=9025):
    rng = np.random.default_rng(seed)
    models = market_mix(MODEL_COUNT, min_b=1.5, max_b=7.9)
    rates = deployment_rates(MODEL_COUNT, rng)
    return materialize_trace(models, list(rates), sharegpt(), bench_horizon(), seed=seed)


def test_fig18_deployment_utilization_and_savings(benchmark):
    def run():
        trace = _deployment_trace()
        window = 15.0
        # Before: dedicated instances, one GPU per model.  "Low load"
        # and "high load" are the least- and most-loaded instances.
        env = Environment()
        dedicated = DedicatedServing(env, H20)

        dedicated_series: dict[str, list[float]] = {}

        def sample_dedicated():
            previous: dict[str, float] = {}
            while env.now < trace.horizon:
                yield env.timeout(window)
                for name, instance in dedicated.instances.items():
                    busy = instance.busy_time
                    delta = busy - previous.get(name, 0.0)
                    previous[name] = busy
                    dedicated_series.setdefault(name, []).append(delta / window)

        dedicated.prepare(trace)
        env.process(sample_dedicated())
        dedicated.prepare = lambda t: None  # placement already built
        result_before = dedicated.serve(trace)
        horizon = trace.horizon
        utilizations = sorted(
            instance.utilization(elapsed=horizon)
            for instance in dedicated.instances.values()
        )
        before_low, before_high = utilizations[0], utilizations[-1]
        before_mean = float(np.mean(utilizations))
        # The "Before" time series of the least/most loaded instances.
        totals = {
            name: sum(series) for name, series in dedicated_series.items()
        }
        low_name = min(totals, key=totals.get)
        high_name = max(totals, key=totals.get)
        series_before = {
            "low": dedicated_series[low_name],
            "high": dedicated_series[high_name],
        }

        # After: one Aegaeon pool sized by sweeping down the instance
        # count until the 90% SLO frontier.
        pool_sizes = [(2, 4), (2, 3), (1, 3), (1, 2)]
        chosen = None
        series_after: list[float] = []
        for prefill, decode in pool_sizes:
            env = Environment()
            cluster = Cluster.homogeneous(env, H20, 1, prefill + decode)
            server = AegaeonServer(
                env,
                cluster,
                AegaeonConfig(
                    prefill_instances=prefill,
                    decode_instances=decode,
                    engine=EngineConfig(weight_buffer_bytes=30 * 1024**3),
                ),
            )
            samples: list[float] = []

            def sample_aegaeon(server=server, samples=samples, env=env):
                instances = [*server.prefill_instances, *server.decode_instances]
                previous = 0.0
                while env.now < trace.horizon:
                    yield env.timeout(window)
                    busy = sum(inst.engine.busy_time for inst in instances)
                    samples.append((busy - previous) / (window * len(instances)))
                    previous = busy

            env.process(sample_aegaeon())
            result_after = server.serve(trace)
            attainment = result_after.slo_attainment
            utilization = float(
                np.mean(
                    [
                        instance.engine.utilization(elapsed=horizon)
                        for instance in [
                            *server.prefill_instances,
                            *server.decode_instances,
                        ]
                    ]
                )
            )
            if attainment >= 0.90:
                chosen = (prefill + decode, attainment, utilization)
                series_after = samples
            else:
                break
        return trace, (before_low, before_high, before_mean), chosen, (
            series_before,
            series_after,
            window,
        )

    trace, before, chosen, series = benchmark.pedantic(run, rounds=1, iterations=1)
    before_low, before_high, before_mean = before
    assert chosen is not None, "Aegaeon failed to meet SLO at any pool size"
    gpus_after, attainment, util_after = chosen
    saving = 1 - gpus_after / MODEL_COUNT

    rows = [
        ("Before (dedicated, low load)", MODEL_COUNT, f"{before_low:.1%}", "-"),
        ("Before (dedicated, high load)", MODEL_COUNT, f"{before_high:.1%}", "-"),
        ("Before (dedicated, mean)", MODEL_COUNT, f"{before_mean:.1%}", "-"),
        ("After (Aegaeon)", gpus_after, f"{util_after:.1%}", f"{attainment:.1%}"),
    ]
    print()
    print(
        format_table(
            ["deployment", "GPUs", "mean GPU util", "SLO"],
            rows,
            title=f"Figure 18 / §7.5: {MODEL_COUNT} models, "
            f"rates in [0.01, 1.13] (mean 0.037), horizon {trace.horizon:.0f}s",
        )
    )
    print(
        f"GPU saving: {MODEL_COUNT} -> {gpus_after} GPUs = {saving:.1%} "
        f"(paper: 1192 -> 213 = 82%)"
    )
    # The Figure 18 time series (utilization per sampling window).
    series_before, series_after, window = series
    print(f"\nGPU utilization over time ({window:.0f}s windows):")
    for label, values in [
        ("Before (low load)", series_before["low"]),
        ("Before (high load)", series_before["high"]),
        ("After (Aegaeon)", series_after),
    ]:
        line = " ".join(f"{v:4.0%}" for v in values[:10])
        print(f"  {label:<24} {line}")
    expected_active = expected_active_models(MODEL_COUNT, 0.037, 10.0)
    print(f"(expected active models at any instant: ~{expected_active:.1f})")

    # The paper's effects, at reduced scale: a large GPU saving...
    assert saving > 0.5
    # ...and utilization rising well above the dedicated mean.
    assert util_after > before_mean * 1.5
