"""Market-scale GPU pooling: how many GPUs does a model market need?

The paper's motivating scenario (§1, §7.5): a marketplace serves many
models with sporadic, skewed traffic.  This example compares three
provisioning strategies on the same deployment-shaped workload —

* dedicated GPUs (one per model, the status quo the paper starts from),
* request-level auto-scaling (ServerlessLLM),
* Aegaeon's token-level pooling —

and reports GPUs needed for >=90% per-token SLO attainment, reproducing
the §7.5 "82% fewer GPUs" effect at laptop scale.

Run:  python examples/market_pooling.py
"""

import numpy as np

from repro.analysis import expected_active_models, format_table
from repro.baselines import DedicatedServing, ServerlessLLM
from repro.core import AegaeonConfig, AegaeonServer
from repro.hardware import Cluster, H800
from repro.models import market_mix
from repro.sim import Environment
from repro.workload import deployment_rates, sharegpt, materialize_trace

MODEL_COUNT = 24
HORIZON = 150.0


def build_trace():
    rng = np.random.default_rng(11)
    models = market_mix(MODEL_COUNT)
    rates = deployment_rates(MODEL_COUNT, rng)
    return materialize_trace(models, list(rates), sharegpt(), HORIZON, seed=11)


def size_aegaeon(trace):
    """Smallest (prefill, decode) split meeting 90% attainment."""
    for prefill, decode in [(1, 2), (1, 3), (2, 3), (2, 4), (2, 6)]:
        env = Environment()
        cluster = Cluster.homogeneous(env, H800, 1, prefill + decode)
        server = AegaeonServer(
            env, cluster, AegaeonConfig(prefill_instances=prefill, decode_instances=decode)
        )
        result = server.serve(trace)
        assert result.drained, f"{result.unaccounted} requests still in flight"
        if result.slo_attainment >= 0.90:
            return prefill + decode, result
    return None, None


def size_serverless(trace):
    """Smallest instance count meeting 90% attainment."""
    for count in [4, 6, 8, 10, 12, 16, 20, MODEL_COUNT]:
        env = Environment()
        cluster = Cluster.homogeneous(env, H800, 1, count)
        result = ServerlessLLM(env, cluster).serve(trace)
        assert result.drained, f"{result.unaccounted} requests still in flight"
        if result.slo_attainment >= 0.90:
            return count, result
    return MODEL_COUNT, None


def main() -> None:
    trace = build_trace()
    total_rate = trace.total_rate
    print(
        f"{MODEL_COUNT} models, {len(trace)} requests over {HORIZON:.0f}s "
        f"({total_rate:.2f} req/s aggregate)"
    )
    mean_rate = total_rate / MODEL_COUNT
    print(
        f"expected active models (Theorem 3.1, T~8s): "
        f"{expected_active_models(MODEL_COUNT, mean_rate, 8.0):.1f}"
    )
    print()

    env = Environment()
    dedicated = DedicatedServing(env, H800)
    result_dedicated = dedicated.serve(trace)
    assert result_dedicated.drained, (
        f"{result_dedicated.unaccounted} requests still in flight"
    )

    sllm_gpus, _ = size_serverless(trace)
    aegaeon_gpus, aegaeon_result = size_aegaeon(trace)

    rows = [
        (
            "Dedicated (1 GPU/model)",
            MODEL_COUNT,
            f"{result_dedicated.slo_attainment:.1%}",
            "0%",
        ),
        (
            "ServerlessLLM (request-level)",
            sllm_gpus,
            ">=90%",
            f"{1 - sllm_gpus / MODEL_COUNT:.0%}",
        ),
        (
            "Aegaeon (token-level)",
            aegaeon_gpus,
            f"{aegaeon_result.slo_attainment:.1%}",
            f"{1 - aegaeon_gpus / MODEL_COUNT:.0%}",
        ),
    ]
    print(
        format_table(
            ["strategy", "GPUs", "SLO attainment", "GPU saving"],
            rows,
            title="GPUs required for the same market workload",
        )
    )
    print(
        f"\nAegaeon pools {MODEL_COUNT / aegaeon_gpus:.1f} models per GPU "
        f"(paper deployment: 82% saving, up to 7 models per GPU)"
    )


if __name__ == "__main__":
    main()
