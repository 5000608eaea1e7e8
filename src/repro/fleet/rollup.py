"""Mergeable fleet metrics: log-bucketed histograms, shard stats, rollup.

Fleet-scale replays dispose of requests as they finish (peak memory must
track concurrency, not trace length), so per-shard measurement has to be
*streaming*: every terminal request is folded once into a
:class:`ShardStats` and dropped.  All the state is mergeable — counters
and :class:`LatencyHistogram` buckets — so a :class:`FleetRollup` can
combine K shards into fleet-wide p50/p99 TTFT/TBT, per-token SLO
attainment (paper §2.1: tokens never generated count as missed), and
$/token, without ever holding a request list.

The histogram is geometric (32 buckets per decade, 100 µs .. 10 ks), so
``observe`` is O(1) and quantiles carry at most ~7.5% relative error —
the right trade for latency percentiles over 10^5+ requests.  The
in-repo :class:`repro.obs.metrics.Histogram` keeps a sorted list per
observation (O(n) inserts) and is deliberately *not* used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..engine.request import Phase, Request

__all__ = ["LatencyHistogram", "ShardStats", "FleetRollup"]

# 32 geometric buckets per decade over [1e-4 s, 1e4 s) — 8 decades.
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


class LatencyHistogram:
    """Fixed-bucket geometric histogram: O(1) insert, exact merge."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * _BUCKET_COUNT
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value <= 0.0:
            index = 0
        else:
            index = int((math.log(value) - _LOG_FLOOR) * _SCALE)
            if index < 0:
                index = 0
            elif index >= _BUCKET_COUNT:
                index = _BUCKET_COUNT - 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LatencyHistogram") -> None:
        for index, count in enumerate(other.counts):
            if count:
                self.counts[index] += count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Approximate quantile (bucket geometric midpoint, clamped to
        the exact observed min/max)."""
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

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }


@dataclass
class ShardStats:
    """Streaming per-shard accounting, folded one request at a time."""

    shard: int = 0
    requests: int = 0
    finished: int = 0
    failed: int = 0
    rejected: int = 0
    #: Requests this shard turned away at admission that the fleet
    #: controller re-submitted to another shard (their terminal
    #: disposition is recorded wherever they finally land).
    spilled: int = 0
    #: Catalog migrations executed by the fleet controller: models this
    #: shard shed (out) / absorbed (in) mid-run.
    migrations_out: int = 0
    migrations_in: int = 0
    no_first_token: int = 0
    tokens_generated: int = 0
    tokens_expected: int = 0
    tokens_met: int = 0
    input_tokens: int = 0
    ttft: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Per-request mean time-between-tokens (needs >= 2 tokens).
    tbt: LatencyHistogram = field(default_factory=LatencyHistogram)

    def fold(self, request: Request) -> None:
        """Absorb one terminally disposed request; the request may be
        garbage-collected immediately afterwards."""
        self.requests += 1
        if request.phase is Phase.REJECTED:
            self.rejected += 1
        elif request.phase is Phase.FAILED:
            self.failed += 1
        elif request.finished:
            self.finished += 1
        self.tokens_met += request.met_tokens
        self.tokens_generated += request.generated_tokens
        self.tokens_expected += request.output_tokens
        self.input_tokens += request.input_tokens
        count = request.generated_tokens
        if count:
            first = request.first_token_time
            self.ttft.observe(first - request.arrival)
            if count >= 2:
                self.tbt.observe((request.last_token_time - first) / (count - 1))
        else:
            self.no_first_token += 1

    def fold_spilled(self, request: Request) -> None:
        """Absorb a rejection this shard handed to another shard.

        A spill is this shard's final word on the request — it counts
        toward ``requests`` so per-shard submissions reconcile
        (``finished + failed + rejected + spilled == submitted``) — but
        its tokens are *not* charged here: the shard that ultimately
        serves (or rejects) the re-submission accounts for them.
        """
        self.requests += 1
        self.spilled += 1

    @property
    def slo_attainment(self) -> float:
        """Fraction of *expected* tokens meeting their deadline (§2.1)."""
        return (
            self.tokens_met / self.tokens_expected if self.tokens_expected else 1.0
        )

    def merge(self, other: "ShardStats") -> None:
        self.requests += other.requests
        self.finished += other.finished
        self.failed += other.failed
        self.rejected += other.rejected
        self.spilled += other.spilled
        self.migrations_out += other.migrations_out
        self.migrations_in += other.migrations_in
        self.no_first_token += other.no_first_token
        self.tokens_generated += other.tokens_generated
        self.tokens_expected += other.tokens_expected
        self.tokens_met += other.tokens_met
        self.input_tokens += other.input_tokens
        self.ttft.merge(other.ttft)
        self.tbt.merge(other.tbt)

    def as_dict(self) -> dict[str, object]:
        return {
            "shard": self.shard,
            "requests": self.requests,
            "finished": self.finished,
            "failed": self.failed,
            "rejected": self.rejected,
            "spilled": self.spilled,
            "migrations_out": self.migrations_out,
            "migrations_in": self.migrations_in,
            "no_first_token": self.no_first_token,
            "tokens_generated": self.tokens_generated,
            "tokens_expected": self.tokens_expected,
            "slo_attainment": self.slo_attainment,
            "ttft": self.ttft.as_dict(),
            "tbt": self.tbt.as_dict(),
        }


class FleetRollup:
    """Fleet-wide aggregate of per-shard :class:`ShardStats`."""

    def __init__(self, shards: list[ShardStats]):
        self.shards = list(shards)
        self.total = ShardStats(shard=-1)
        for stats in self.shards:
            self.total.merge(stats)

    # Aggregate views -------------------------------------------------------
    @property
    def slo_attainment(self) -> float:
        return self.total.slo_attainment

    def cost_per_token(self, cost_usd: float) -> Optional[float]:
        """USD per generated output token, given the run's GPU bill."""
        if not self.total.tokens_generated:
            return None
        return cost_usd / self.total.tokens_generated

    def summary(self) -> dict[str, object]:
        """Fleet-level metric rollup (what the demo and CI print)."""
        total = self.total
        return {
            "shards": len(self.shards),
            "requests": total.requests,
            "finished": total.finished,
            "failed": total.failed,
            "rejected": total.rejected,
            "spilled": total.spilled,
            "migrations": total.migrations_out,
            "slo_attainment": total.slo_attainment,
            "tokens_generated": total.tokens_generated,
            "ttft_p50": total.ttft.quantile(0.50),
            "ttft_p99": total.ttft.quantile(0.99),
            "tbt_p50": total.tbt.quantile(0.50),
            "tbt_p99": total.tbt.quantile(0.99),
        }
