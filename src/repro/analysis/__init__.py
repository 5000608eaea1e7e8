"""Metrics, analytical models, and reporting."""

from .active_models import (
    expected_active_models,
    models_per_gpu_bound,
    simulate_active_models,
)
from .metrics import LatencyBreakdown, ServingResult, goodput_frontier
from .planner import DEFAULT_CANDIDATES, PoolPlan, plan_pool
from .reporting import (
    format_cdf,
    format_series,
    format_table,
    percentiles,
)

__all__ = [
    "DEFAULT_CANDIDATES",
    "LatencyBreakdown",
    "PoolPlan",
    "ServingResult",
    "expected_active_models",
    "format_cdf",
    "format_series",
    "format_table",
    "goodput_frontier",
    "models_per_gpu_bound",
    "plan_pool",
    "percentiles",
    "simulate_active_models",
]
