"""Ablations of the paper's stated design choices.

The paper makes three empirical design claims beyond the headline
optimizations, each ablated here:

* §4.2: ``MAX_GPSIZE = 8`` via grid search — "larger values behave
  identically because groups seldom grow past that size, and smaller
  values can still cause excessive scaling under high load".
* §4.3: ``QMAX = 4 s`` — "we find Aegaeon to be robust under
  alternative settings".
* §4.2: prefill batch size one — "smaller batches reduce overall
  waiting time without significantly impacting throughput".  (We ablate
  the closely related choice of disabling prefetch, quantifying how
  much of Aegaeon's margin each §5 feature contributes end to end.)
"""

from _common import bench_scale, make_trace
from repro.analysis import format_table
from repro.core import AegaeonConfig, AegaeonServer
from repro.engine import EngineConfig
from repro.hardware import Cluster
from repro.policy import Tunables, get_bundle
from repro.sim import Environment


def _run(trace, tunables=Tunables(), engine=None):
    env = Environment()
    config = AegaeonConfig(engine=engine if engine is not None else EngineConfig())
    policies = get_bundle("aegaeon").with_tunables(tunables)
    server = AegaeonServer(env, Cluster.testbed(env), config, policies=policies)
    return server.serve(trace)


def test_ablation_max_gpsize(benchmark):
    sizes = [1, 4, 8, 16] if bench_scale() >= 1.0 else [1, 8]
    trace = make_trace(48, 0.25, seed=11025)

    def run():
        return {
            size: _run(trace, Tunables(max_prefill_group=size)).slo_attainment
            for size in sizes
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["MAX_GPSIZE", "SLO attainment"],
            [(size, f"{value:.1%}") for size, value in results.items()],
            title="Ablation: prefill group size cap (48 models x 0.25 RPS)",
        )
    )
    # Larger-than-8 behaves like 8 (groups seldom grow past it)...
    assert abs(results[sizes[-1]] - results[8 if 8 in results else sizes[-1]]) < 0.05
    # ...and ungrouped prefill (size 1) pays for the extra scaling.
    assert results[1] <= results[sizes[-1]] + 0.02


def test_ablation_qmax(benchmark):
    qmaxes = [1.0, 2.0, 4.0, 8.0] if bench_scale() >= 1.0 else [2.0, 4.0]
    trace = make_trace(48, 0.1, seed=11125)

    def run():
        return {q: _run(trace, Tunables(qmax=q)).slo_attainment for q in qmaxes}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["QMAX (s)", "SLO attainment"],
            [(q, f"{value:.1%}") for q, value in results.items()],
            title="Ablation: decode turn quota cap (48 models x 0.1 RPS)",
        )
    )
    # §4.3's robustness claim: attainment varies little across 2-8 s.
    window = [results[q] for q in qmaxes if q >= 2.0]
    assert max(window) - min(window) < 0.10


def test_ablation_engine_features_end_to_end(benchmark):
    trace = make_trace(40, 0.1, seed=11225)
    variants = {
        "full": EngineConfig(),
        "no prefetch": EngineConfig(prefetch=False),
        "no fine sync": EngineConfig(prefetch=False, fine_grained_sync=False),
        "no explicit mem": EngineConfig(
            prefetch=False, fine_grained_sync=False, explicit_memory=False
        ),
    }

    def run():
        return {
            label: _run(trace, engine=config).slo_attainment
            for label, config in variants.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["engine variant", "SLO attainment"],
            [(label, f"{value:.1%}") for label, value in results.items()],
            title="Ablation: §5 features end to end (40 models x 0.1 RPS)",
        )
    )
    # Each removed feature can only hurt; removing explicit memory
    # (naive loading + GC) is catastrophic at this pooling level.
    assert results["full"] >= results["no fine sync"] - 0.03
    assert results["no explicit mem"] < results["full"] - 0.2
