"""Quickstart: serve many models on a small GPU pool with Aegaeon.

Builds a serving system on a 4-GPU cluster through the unified
``build_system()`` factory, pools it between twelve 6-14B models, replays
a synthetic market workload with full observability on, and prints
per-token SLO attainment, auto-scaling statistics, and the per-stage
model-switch breakdown rebuilt from the trace.  It also writes a Chrome
``trace_event`` timeline you can open at chrome://tracing or
https://ui.perfetto.dev.

By default this runs Aegaeon under its default policy bundle.  Set
``REPRO_POLICIES`` to any registered bundle name to steer the run —
the bundle picks both the policies *and* the serving topology they
drive (``repro.policy.get_bundle(name).system``), e.g.::

    REPRO_POLICIES=aegaeon-slo-admission python examples/quickstart.py
    REPRO_POLICIES=muxserve-cost-placement python examples/quickstart.py

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import format_table
from repro.core import (
    AegaeonConfig,
    RunSettings,
    SystemConfig,
    SystemSpec,
    build_system,
)
from repro.engine import EngineConfig
from repro.models import market_mix
from repro.obs import ObsConfig, format_switch_breakdown, write_chrome_trace
from repro.policy import get_bundle
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

TRACE_PATH = "quickstart_trace.json"


def quad_config(system: str, obs: ObsConfig):
    """The smallest sensible 4-GPU deployment of each topology."""
    if system == "aegaeon":
        # One prefill instance, three decoding instances, all §5
        # optimizations on.
        return AegaeonConfig(
            prefill_instances=1,
            decode_instances=3,
            engine=EngineConfig(),
            cluster="h800-quad",
            obs=obs,
        )
    # Every other system runs one instance per GPU.
    return SystemConfig(cluster="h800-quad", obs=obs)


def main() -> None:
    # 1. Pick the policy bundle (REPRO_POLICIES, default: aegaeon) and
    #    build the topology it steers on a simulated 4-GPU node.
    settings = RunSettings.from_env()
    bundle = get_bundle(settings.policies or "aegaeon")
    env = Environment()
    server = build_system(
        SystemSpec(
            system=bundle.system,
            config=quad_config(bundle.system, ObsConfig.full()),
            policies=bundle.name,
        ),
        env,
    )

    # 2. A workload: twelve models, sporadic arrivals, ShareGPT lengths.
    models = market_mix(12)
    trace = materialize_trace(
        models, rates=[0.08] * len(models), dataset=sharegpt(), horizon=120.0, seed=7
    )
    print(
        f"Serving {len(models)} models / {len(trace)} requests on "
        f"{server.gpu_count} GPUs [{server.label}, policies={bundle.name}]..."
    )

    # 3. Serve and report.
    result = server.serve(trace)
    registry = server.registry
    assert result.drained, f"{result.unaccounted} requests still in flight"
    assert registry.finished + registry.failed + registry.rejected == registry.submitted
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ("requests finished", f"{result.finished_requests}/{len(trace)}"),
                ("requests rejected", f"{registry.rejected}"),
                ("SLO attainment", f"{result.slo_attainment:.1%}"),
                ("mean TTFT", f"{result.summary()['mean_ttft']:.2f} s"),
                ("models per GPU", f"{len(models) / server.gpu_count:.1f}"),
            ],
            title=f"Quickstart results ({bundle.name})",
        )
    )
    latencies = result.scaling_latencies()
    if len(latencies):
        print(
            f"\nauto-scalings: {len(latencies)}, median "
            f"{np.median(latencies):.2f} s, near-instant (prefetch) "
            f"{np.mean(latencies < 0.25):.0%}"
        )
    else:
        # Static bundles (muxserve) never scale: that is their point.
        print("\nauto-scalings: none (static placement)")

    # 4. The observability layer: per-stage switch breakdown + timeline.
    print()
    print(format_switch_breakdown(result.obs.tracer))
    write_chrome_trace(result.obs.tracer, TRACE_PATH)
    print(f"\ntimeline written to {TRACE_PATH} (open in chrome://tracing)")


if __name__ == "__main__":
    main()
