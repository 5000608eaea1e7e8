"""Burst absorption: pooling hot-model overflow with cold models.

Figure 1(b)'s second motivation: even "hot" models see short-term bursts
that overflow their reserved capacity.  This example serves one hot
model alongside a tail of cold models on a shared Aegaeon pool and
shows the burst being absorbed by capacity the cold models are not
using — without hurting the cold models' SLOs.

Run:  python examples/burst_absorption.py
"""

import numpy as np

from repro.analysis import format_table
from repro.core import AegaeonConfig, AegaeonServer
from repro.hardware import Cluster, H800
from repro.models import market_mix
from repro.sim import Environment
from repro.workload import (
    BurstConfig,
    Trace,
    TraceRequest,
    bursty_arrivals,
    poisson_arrivals,
    sharegpt,
)

HORIZON = 180.0
HOT_BASE_RATE = 1.2
COLD_RATE = 0.05
COLD_MODELS = 7


def build_trace() -> Trace:
    rng = np.random.default_rng(23)
    models = market_mix(1 + COLD_MODELS)
    hot, cold = models[0], models[1:]
    dataset = sharegpt()

    requests = []
    hot_arrivals = bursty_arrivals(
        HOT_BASE_RATE,
        HORIZON,
        rng,
        burst=BurstConfig(episode_rate=1 / 60.0, episode_duration=25.0, multiplier=2.0),
    )
    for arrival in hot_arrivals:
        sample = dataset.sample_one(rng)
        requests.append((hot.name, float(arrival), sample))
    for spec in cold:
        for arrival in poisson_arrivals(COLD_RATE, HORIZON, rng):
            sample = dataset.sample_one(rng)
            requests.append((spec.name, float(arrival), sample))
    requests.sort(key=lambda item: item[1])
    trace_requests = tuple(
        TraceRequest(
            request_id=index,
            model=model,
            arrival=arrival,
            input_tokens=sample.input_tokens,
            output_tokens=sample.output_tokens,
        )
        for index, (model, arrival, sample) in enumerate(requests)
    )
    return Trace(requests=trace_requests, models=tuple(models), horizon=HORIZON)


def main() -> None:
    trace = build_trace()
    hot_name = trace.models[0].name
    hot_count = sum(1 for r in trace.requests if r.model == hot_name)
    print(
        f"1 hot model ({hot_count} reqs, bursty) + {COLD_MODELS} cold models "
        f"({len(trace) - hot_count} reqs) on a 5-GPU Aegaeon pool"
    )

    env = Environment()
    cluster = Cluster.homogeneous(env, H800, 1, 5)
    server = AegaeonServer(
        env, cluster, AegaeonConfig(prefill_instances=2, decode_instances=3)
    )
    result = server.serve(trace)
    assert result.drained, f"{result.unaccounted} requests still in flight"

    # Split attainment by model class.
    per_request = result.per_request_attainment()
    hot_mask = np.array([r.model == hot_name for r in result.requests])
    expected = np.array([r.output_tokens for r in result.requests], dtype=float)

    def group_attainment(mask):
        met = per_request[mask] * expected[mask]
        return met.sum() / expected[mask].sum()

    rows = [
        ("hot model (with bursts)", f"{group_attainment(hot_mask):.1%}"),
        ("cold tail models", f"{group_attainment(~hot_mask):.1%}"),
        ("overall", f"{result.slo_attainment:.1%}"),
    ]
    print()
    print(format_table(["traffic class", "SLO attainment"], rows, title="Burst absorption"))
    print(
        "\nThe burst overflow rides on capacity the cold models leave idle;"
        "\nno dedicated burst reservation is provisioned."
    )


if __name__ == "__main__":
    main()
