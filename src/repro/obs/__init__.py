"""Structured observability: tracing, metrics, and timeline export.

``repro.obs`` is the cluster-wide observability layer.  Every serving
system built through :func:`repro.core.build_system` owns an
:class:`Observability` (tracer + metrics registry) configured by an
:class:`ObsConfig`; the engine, schedulers, instances, KV transfer
machinery, and allocators all record into it.  Exporters turn a run into
a Chrome ``trace_event`` timeline, CSV/JSON metric dumps, or the
Figure 8/15-style switch breakdowns.
"""

from .config import ObsConfig
from .core import NULL_OBS, Observability
from .exporters import (
    chrome_trace,
    format_switch_breakdown,
    metrics_to_csv,
    switch_breakdown,
    write_chrome_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, MetricsScope
from .tracer import CounterSample, InstantRecord, SpanRecord, Tracer

__all__ = [
    "Counter",
    "CounterSample",
    "Gauge",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_OBS",
    "ObsConfig",
    "Observability",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "format_switch_breakdown",
    "metrics_to_csv",
    "switch_breakdown",
    "write_chrome_trace",
]
