"""Counters, gauges, and histograms with per-component scoping.

A :class:`MetricsRegistry` hands out metric instruments keyed by
``(scope, name)`` — scope being the owning component (``decode3``,
``cpu_kv``) — and snapshots them into a flat mapping for export.  When
the registry is disabled every request returns shared null instruments,
so instrumented code records unconditionally and pays a no-op call when
observability is off.

:class:`Histogram` is geometric: ``observe`` is O(1), merging is exact,
and quantiles carry at most ~7.5% relative error.  The fleet rollup's
per-shard latency statistics use the same class.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsScope",
    "record",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A point-in-time value, set directly or sampled from a callable."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = value
        self._fn = None

    def set_fn(self, fn: Callable[[], float]) -> None:
        """Sample the gauge from ``fn`` at read time (live views)."""
        self._fn = fn

    @property
    def value(self) -> float:
        """The current gauge reading."""
        return float(self._fn()) if self._fn is not None else self._value


# 32 geometric buckets per decade over [1e-4, 1e4) -- 8 decades.
_BUCKETS_PER_DECADE = 32
_DECADES = 8
_FLOOR = 1e-4
_BUCKET_COUNT = _BUCKETS_PER_DECADE * _DECADES
_SCALE = _BUCKETS_PER_DECADE / math.log(10.0)
_LOG_FLOOR = math.log(_FLOOR)
# Geometric midpoint of each bucket, precomputed for quantile readout.
_MIDPOINTS = [
    math.exp(_LOG_FLOOR + (index + 0.5) / _SCALE) for index in range(_BUCKET_COUNT)
]


def record(histogram: "Histogram", value: float) -> None:
    """Add one sample to ``histogram``: the body of
    :meth:`Histogram.observe`, which calls it.

    :class:`~repro.core.stats.ShardStats` folds its latencies through
    this function directly, so request accounting is not counted as
    metric observations.
    """
    if value <= 0.0:
        index = 0
    else:
        index = int((math.log(value) - _LOG_FLOOR) * _SCALE)
        if index < 0:
            index = 0
        elif index >= _BUCKET_COUNT:
            index = _BUCKET_COUNT - 1
    histogram.counts[index] += 1
    histogram.count += 1
    histogram.total += value
    if value < histogram.min:
        histogram.min = value
    if value > histogram.max:
        histogram.max = value


class Histogram:
    """Fixed-bucket geometric histogram: O(1) observe, exact merge.

    32 buckets per decade over 100 µs .. 10 ks, so a quantile carries at
    most ~7.5% relative error (clamped to the exact observed min/max);
    count, total, mean, min and max are exact.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * _BUCKET_COUNT
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        record(self, value)

    def merge(self, other: "Histogram") -> None:
        """Absorb ``other``'s samples (exact: bucket counts add)."""
        for index, count in enumerate(other.counts):
            if count:
                self.counts[index] += count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (nan when empty)."""
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Approximate quantile (bucket geometric midpoint, clamped to
        the exact observed min/max; nan when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return math.nan
        rank = q * (self.count - 1)
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative > rank:
                return min(max(_MIDPOINTS[index], self.min), self.max)
        return self.max

    def summary(self, points: Sequence[float] = (50, 90, 99)) -> dict[str, float]:
        """Count, mean, and the requested percentiles as a mapping."""
        out: dict[str, float] = {"count": float(self.count), "mean": self.mean}
        for p in points:
            out[f"p{p:g}"] = self.quantile(p / 100.0)
        return out

    def as_dict(self) -> dict[str, float]:
        """The fleet rollup's row: count, mean, p50, p99, min and max."""
        out = self.summary((50, 99))
        out["min"] = self.min if self.count else math.nan
        out["max"] = self.max if self.count else math.nan
        return out


#: The fleet rollup's name for the same class.
LatencyHistogram = Histogram


class _NullCounter(Counter):
    """Shared counter that records nothing (disabled registry)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op."""


class _NullGauge(Gauge):
    """Shared gauge that records nothing (disabled registry)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """No-op."""

    def set_fn(self, fn: Callable[[], float]) -> None:
        """No-op."""


class _NullHistogram(Histogram):
    """Shared histogram that records nothing (disabled registry)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """No-op."""


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Registry of scoped counters/gauges/histograms."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[tuple[str, str], Metric] = {}

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str, scope: str = "") -> Counter:
        """The counter ``scope/name``, created on first use."""
        return self._get(name, scope, Counter, _NULL_COUNTER)

    def gauge(self, name: str, scope: str = "") -> Gauge:
        """The gauge ``scope/name``, created on first use."""
        return self._get(name, scope, Gauge, _NULL_GAUGE)

    def histogram(self, name: str, scope: str = "") -> Histogram:
        """The histogram ``scope/name``, created on first use."""
        return self._get(name, scope, Histogram, _NULL_HISTOGRAM)

    def scoped(self, scope: str) -> "MetricsScope":
        """A view that prefixes every instrument with ``scope``."""
        return MetricsScope(self, scope)

    def _get(self, name: str, scope: str, cls: type, null: Metric) -> Metric:
        if not self.enabled:
            return null
        key = (scope, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {scope}/{name} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    # -- export --------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Flatten every metric into ``scope/name`` keys.

        Counters and gauges flatten to their value; histograms to a
        ``{count, mean, p50, p90, p99}`` mapping.
        """
        out: dict[str, object] = {}
        for (scope, name), metric in sorted(self._metrics.items()):
            key = f"{scope}/{name}" if scope else name
            if isinstance(metric, Histogram):
                out[key] = metric.summary()
            else:
                out[key] = metric.value
        return out

    def __len__(self) -> int:
        return len(self._metrics)


class MetricsScope:
    """A registry view bound to one component scope."""

    __slots__ = ("_registry", "_scope")

    def __init__(self, registry: MetricsRegistry, scope: str):
        self._registry = registry
        self._scope = scope

    def counter(self, name: str) -> Counter:
        """The counter ``name`` under this scope."""
        return self._registry.counter(name, scope=self._scope)

    def gauge(self, name: str) -> Gauge:
        """The gauge ``name`` under this scope."""
        return self._registry.gauge(name, scope=self._scope)

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name`` under this scope."""
        return self._registry.histogram(name, scope=self._scope)
