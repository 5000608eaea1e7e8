"""Streaming request accounting: every serving system's one fold.

Every :class:`~repro.core.serving.ServingSystemBase` owns a
:class:`ShardStats` and folds each terminal disposition into it exactly
once; what is still in flight when a run ends is folded at collection,
so tokens never generated count as missed (paper §2.1).  The one
result, :class:`~repro.analysis.metrics.ServingResult`, reads this fold
through a :class:`FleetRollup` of the run's systems: one for ``serve``,
one per shard for a fleet.  The state is counters and geometric
:class:`~repro.obs.metrics.Histogram` buckets (quantiles within ~7.5%
relative error), so it is mergeable and never holds a request list.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from ..engine.request import Phase, Request
from ..obs.metrics import Histogram, record

__all__ = ["FleetRollup", "ShardStats", "stats_digest"]


@dataclass
class ShardStats:
    """Streaming per-system accounting, folded one request at a time."""

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
    ttft: Histogram = field(default_factory=Histogram)
    #: Per-request mean time-between-tokens (needs >= 2 tokens).
    tbt: Histogram = field(default_factory=Histogram)

    def fold(self, request: Request) -> None:
        """Absorb one request: terminally disposed, or still in flight
        when the run ended.  The request may be garbage-collected
        immediately afterwards."""
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
            record(self.ttft, first - request.arrival)
            if count >= 2:
                record(self.tbt, (request.last_token_time - first) / (count - 1))
        else:
            self.no_first_token += 1

    def fold_spilled(self, request: Request) -> None:
        """Absorb a rejection this shard handed to another shard.

        A spill is this shard's final word on the request — it counts
        toward ``requests`` so per-shard submissions reconcile
        (``finished + failed + rejected + spilled == submitted`` on a
        drained run) — but its tokens are *not* charged here: the shard
        that ultimately serves (or rejects) the re-submission accounts
        for them.
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
    """Run-wide aggregate of per-system (per-shard) :class:`ShardStats`."""

    def __init__(self, shards: list[ShardStats]):
        self.shards = list(shards)
        self.total = ShardStats(shard=-1)
        for stats in self.shards:
            self.total.merge(stats)

    @property
    def slo_attainment(self) -> float:
        return self.total.slo_attainment

    def cost_per_token(self, cost_usd: float) -> Optional[float]:
        """USD per generated output token, given the run's GPU bill."""
        if not self.total.tokens_generated:
            return None
        return cost_usd / self.total.tokens_generated

    def summary(self) -> dict[str, object]:
        """Run-level metric rollup (what the demos and CI print)."""
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


def stats_digest(shard_stats: list[ShardStats], sessions: Optional[dict] = None) -> str:
    """Order-stable hash of a run's outcome: every shard's stats row,
    then the session rollup when the run had sessions.  A single
    system's result is its one row."""
    rows: list = [stats.as_dict() for stats in shard_stats]
    if sessions is not None:
        rows.append(sessions)
    payload = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
