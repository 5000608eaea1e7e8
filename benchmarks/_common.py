"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows/series of one paper table or
figure.  Full-paper scale (80 models x 0.5 RPS for long horizons) is
CPU-minutes in pure Python, so benches default to a reduced horizon and
a trimmed parameter grid, printing exactly what they ran.  Run-level
knobs resolve through :class:`repro.core.RunSettings`:

* ``REPRO_BENCH_HORIZON`` — simulated seconds of trace (default 150)
* ``REPRO_BENCH_SCALE``   — multiplies the parameter grids (default 1.0)
* ``REPRO_BENCH_SEED``    — workload seed (default 2025)
* ``REPRO_OBS``           — observability level (off | metrics | full)

Systems are constructed through :func:`repro.core.build_system`, so every
bench exercises the same :class:`repro.core.ServingSystem` surface the
examples and tests use.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core import (
    AegaeonConfig,
    DEFAULT_SLO,
    RunSettings,
    SloSpec,
    SystemConfig,
    SystemSpec,
    build_system,
)
from repro.analysis import ServingResult
from repro.engine import EngineConfig
from repro.models import market_mix
from repro.sim import Environment
from repro.workload import Dataset, sharegpt, materialize_trace

__all__ = [
    "bench_horizon",
    "bench_scale",
    "bench_settings",
    "make_trace",
    "require_drained",
    "run_system",
    "SYSTEMS",
    "default_seed",
]

DEFAULT_HORIZON = 150.0
SEED = 2025


def bench_settings() -> RunSettings:
    """The run-level knobs resolved from the environment."""
    return RunSettings.from_env()


def bench_horizon() -> float:
    """Simulated trace horizon for serving benches."""
    return bench_settings().horizon


def bench_scale() -> float:
    """Grid scale factor (1.0 = default trimmed grids)."""
    return bench_settings().scale


def default_seed() -> int:
    return bench_settings().seed


def make_trace(
    model_count: int,
    rps: float,
    dataset: Dataset | None = None,
    horizon: float | None = None,
    seed: int = SEED,
):
    """The paper's §7.1 synthesis: ``model_count`` models at ``rps`` each."""
    models = market_mix(model_count)
    dataset = dataset if dataset is not None else sharegpt()
    horizon = horizon if horizon is not None else bench_horizon()
    return materialize_trace(models, [rps] * model_count, dataset, horizon, seed=seed)


def aegaeon_factory(slo: SloSpec = DEFAULT_SLO, engine: EngineConfig = EngineConfig()):
    def build(env: Environment):
        config = AegaeonConfig(
            engine=engine, slo=slo, obs=bench_settings().obs
        )
        return build_system(SystemSpec(system="aegaeon", config=config), env)

    return build


# Request-level scaling at the overload points (Fig 11c, Fig 12d at 32
# models) leaves a backlog that drains 300-370 s after the last arrival;
# the default 300 s grace would cut those runs short.
SLLM_DRAIN_GRACE = 450.0


def sllm_factory(slo: SloSpec = DEFAULT_SLO):
    def build(env: Environment):
        config = SystemConfig(
            slo=slo, obs=bench_settings().obs, drain_grace=SLLM_DRAIN_GRACE
        )
        return build_system(SystemSpec(system="serverless-llm", config=config), env)

    return build


def sllm_plus_factory(slo: SloSpec = DEFAULT_SLO):
    def build(env: Environment):
        config = SystemConfig(
            slo=slo, obs=bench_settings().obs, drain_grace=SLLM_DRAIN_GRACE
        )
        return build_system(SystemSpec(system="serverless-llm+", config=config), env)

    return build


def muxserve_factory(slo: SloSpec = DEFAULT_SLO):
    def build(env: Environment):
        config = SystemConfig(slo=slo, obs=bench_settings().obs)
        return build_system(SystemSpec(system="muxserve", config=config), env)

    return build


# The §7.2 comparison set on the 16-GPU testbed.
SYSTEMS: dict[str, Callable[[SloSpec], Callable[[Environment], object]]] = {
    "Aegaeon": aegaeon_factory,
    "ServerlessLLM": sllm_factory,
    "ServerlessLLM+": sllm_plus_factory,
    "MuxServe": muxserve_factory,
}


def require_drained(result) -> None:
    """Raise if the drain deadline cut a serve or replay short.

    A run that left requests in flight under-counts them: a figure
    built from it is wrong, and its throughput is not comparable.
    """
    if not result.drained or result.unaccounted:
        raise RuntimeError(
            f"run did not drain: {result.unaccounted} requests still in "
            f"flight at the drain deadline (t={result.end_time:.1f} s)"
        )


def run_system(factory: Callable[[Environment], object], trace) -> ServingResult:
    """Build a fresh environment + system, serve the trace, require a drain."""
    env = Environment()
    system = factory(env)
    result = system.serve(trace)
    require_drained(result)
    return result


def trimmed(grid: Sequence, limit_when_small: int | None = None) -> list:
    """Apply REPRO_BENCH_SCALE to a parameter grid."""
    scale = bench_scale()
    if scale >= 1.0:
        return list(grid)
    keep = max(1, round(len(grid) * scale))
    return list(grid)[:keep]
