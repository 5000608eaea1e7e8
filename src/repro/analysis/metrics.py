"""Serving metrics: per-token SLO attainment, goodput, latency breakdown.

The central object is :class:`ServingResult`, what every run in this
reproduction returns: a single system's ``serve(workload)`` and a
fleet's ``FleetRunner.run(stream)`` alike, both built by
:func:`collect_result`.  Its counts, attainment and cost read the run's
:class:`~repro.core.stats.ShardStats` folds (one per system) through a
:class:`~repro.core.stats.FleetRollup`.  Attainment follows the
paper's definition (§2.1): the fraction of token generation times
meeting their deadlines, **counting tokens never generated by the end of
the run as missed** (otherwise a system could game the metric by
starving requests).  Per-request arrays remain only where a figure
needs them, and need the run to have retained its requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.slo import SloSpec
from ..core.stats import FleetRollup, ShardStats, stats_digest
from ..engine.engine import ScaleRecord
from ..engine.request import Request
from ..obs import Observability
from ..transfer.kv_transfer import TransferStats

__all__ = ["ServingResult", "LatencyBreakdown", "collect_result", "goodput_frontier"]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Stage shares of total request latency (Figure 14)."""

    prefill_waiting: float
    prefill_execution: float
    decoding_waiting: float
    decoding_execution: float
    control_overhead: float
    data_overhead: float

    def as_dict(self) -> dict[str, float]:
        """The shares as a plain mapping (for tables)."""
        return {
            "prefill_waiting": self.prefill_waiting,
            "prefill_execution": self.prefill_execution,
            "decoding_waiting": self.decoding_waiting,
            "decoding_execution": self.decoding_execution,
            "control_overhead": self.control_overhead,
            "data_overhead": self.data_overhead,
        }


@dataclass
class ServingResult:
    """Everything measured from one run, of one system or of a fleet."""

    #: Every system's fold of its requests (the in-flight ones
    #: included), in shard order; a ``serve`` has one.
    shard_stats: list[ShardStats]
    slo: SloSpec
    horizon: float
    end_time: float
    #: Every system's retained requests, in shard order; None when the
    #: run dropped them (a fleet's ``retain_requests=False``).
    requests: Optional[list[Request]]
    #: Requests the run submitted (a fleet's spills not included).
    submitted: int = 0
    gpu_count: int = 0
    #: GPU-hours at simulated time and the market-rate bill for them.
    gpu_hours: float = 0.0
    cost_usd: float = 0.0
    scale_records: list[ScaleRecord] = field(default_factory=list)
    transfer_stats: list[TransferStats] = field(default_factory=list)
    label: str = ""
    #: The run's metric snapshot at collection (a fleet's own registry),
    #: each system's snapshot, and the run's live Observability.
    metrics: dict[str, object] = field(default_factory=dict)
    shard_metrics: list = field(default_factory=list)
    obs: Optional[Observability] = None
    #: ``FleetController.summary()`` when the run had a controller.
    controller: Optional[dict] = None
    #: ``SessionCoordinator.summary()`` when the run mixed agentic
    #: sessions into the stream (per-session conservation rollup).
    sessions: Optional[dict] = None
    #: False when the drain deadline ended the run before every
    #: submitted request reached a terminal disposition; ``unaccounted``
    #: is the number still in flight at that point.
    drained: bool = True
    unaccounted: int = 0

    def __post_init__(self) -> None:
        self.rollup = FleetRollup(self.shard_stats)

    # -- attainment and cost ----------------------------------------------------
    @property
    def slo_attainment(self) -> float:
        """Fraction of expected tokens meeting their deadlines (§2.1)."""
        return self.rollup.slo_attainment

    @property
    def cost_per_token(self) -> Optional[float]:
        return self.rollup.cost_per_token(self.cost_usd)

    def digest(self) -> str:
        """Order-stable hash of the run's outcome: every system's stats
        row, then the session rollup when the run had sessions."""
        return stats_digest(self.shard_stats, self.sessions)

    def _retained(self) -> list[Request]:
        """The requests a figure array reads; a streaming run kept none."""
        if self.requests is None:
            raise RuntimeError(
                "figure arrays need the run's requests, and this run dropped them; "
                "replay with retain_requests=True"
            )
        return self.requests

    def per_request_attainment(self) -> np.ndarray:
        """Attainment of each request individually."""
        return np.asarray([
            request.met_tokens / request.output_tokens
            if request.output_tokens else 1.0
            for request in self._retained()
        ])

    # -- latency ---------------------------------------------------------------
    def ttfts(self) -> np.ndarray:
        """TTFT of each request (inf if no token was produced)."""
        values = []
        for request in self._retained():
            first = request.first_token_time
            values.append(float("inf") if first is None else first - request.arrival)
        return np.asarray(values)

    def latency_breakdown(self) -> LatencyBreakdown:
        """Aggregate stage shares across all requests (Figure 14)."""
        prefill_wait = prefill_exec = decode_wait = decode_exec = 0.0
        data_overhead = 0.0
        sync_by_request = self._sync_by_request()
        for request in self._retained():
            start = request.prefill_start
            if start is None:
                prefill_wait += self.end_time - request.arrival
                continue
            prefill_wait += start - request.arrival
            end = request.prefill_end if request.prefill_end is not None else self.end_time
            prefill_exec += end - start
            if request.decode_enqueue is None:
                continue
            finish = request.finish_time if request.finish_time is not None else self.end_time
            decode_total = max(0.0, finish - request.decode_enqueue)
            sync = sync_by_request.get(request.request_id, 0.0)
            exec_time = min(request.decode_exec_time, decode_total)
            data_overhead += min(sync, decode_total - exec_time)
            decode_exec += exec_time
            decode_wait += max(0.0, decode_total - exec_time - sync)
        control = sum(stats.control_overhead for stats in self.transfer_stats)
        total = (
            prefill_wait
            + prefill_exec
            + decode_wait
            + decode_exec
            + control
            + data_overhead
        )
        if total <= 0:
            return LatencyBreakdown(0, 0, 0, 0, 0, 0)
        return LatencyBreakdown(
            prefill_waiting=prefill_wait / total,
            prefill_execution=prefill_exec / total,
            decoding_waiting=decode_wait / total,
            decoding_execution=decode_exec / total,
            control_overhead=control / total,
            data_overhead=data_overhead / total,
        )

    def _sync_by_request(self) -> dict[int, float]:
        """Each request's KV sync wait, summed over the engines."""
        sync: dict[int, float] = {}
        for stats in self.transfer_stats:
            for request_id, seconds in stats.per_request_sync.items():
                sync[request_id] = sync.get(request_id, 0.0) + seconds
        return sync

    # -- throughput ----------------------------------------------------------
    @property
    def finished_requests(self) -> int:
        return self.rollup.total.finished

    # -- auto-scaling (Figure 15) ------------------------------------------------
    def scaling_latencies(self, exclude_first_boot: bool = True) -> np.ndarray:
        """Durations of preemptive scale operations."""
        self._retained()  # a streaming run's figures all fail alike
        records = self.scale_records
        if exclude_first_boot:
            records = [r for r in records if r.model_from is not None]
        return np.asarray([r.total for r in records if r.model_to != r.model_from])

    def kv_sync_overheads(self) -> np.ndarray:
        """Per-request KV transfer wait totals (Figure 15, right)."""
        requests = self._retained()
        sync = self._sync_by_request()
        # Requests that never waited count as zero.
        return np.asarray([sync.get(request.request_id, 0.0) for request in requests])

    def summary(self) -> dict[str, object]:
        """The rollup plus the run's cost accounting and drain state."""
        out = self.rollup.summary()
        out.update(
            submitted=self.submitted,
            end_time=self.end_time,
            gpu_count=self.gpu_count,
            gpu_hours=self.gpu_hours,
            cost_usd=self.cost_usd,
            cost_per_token=self.cost_per_token,
            mean_ttft=self.rollup.total.ttft.mean,
            drained=self.drained,
            unaccounted=self.unaccounted,
        )
        if self.controller is not None:
            out["controller"] = dict(self.controller)
        if self.sessions is not None:
            out["sessions"] = dict(self.sessions)
        return out


def collect_result(
    systems: list,
    env,
    horizon: float,
    drained: bool,
    unaccounted: int,
    submitted: int,
    *,
    obs: Optional[Observability] = None,
    controller=None,
    sessions=None,
) -> ServingResult:
    """Build the result of a run that has just ended.

    ``systems`` are the run's serving systems (one for ``serve``, a
    fleet's shards in order).  Every live run on the clock settles
    first (``env.settle_runs()``): a run retires its intervals only
    when it ends or splits, so without this a run the deadline cut
    short would lose the link counters, stream spans, tokens and KV
    growth it had already done.  Each system then records the spans
    that have ended and folds what it still has in flight.  ``obs`` is
    a fleet's own observability: its rollup gauges are set and its
    snapshot is the result's ``metrics``.  Without it the one system's
    registry is the run's, and gains no keys.  ``controller`` and
    ``sessions`` are a fleet's, summarized into the result.
    """
    env.settle_runs()
    for system in systems:
        system.obs.tracer.flush()
        system.fold_in_flight()
    now = env.now
    gpu_count = sum(system.gpu_count for system in systems)
    hourly_usd = sum(system.hourly_usd() for system in systems)
    first = systems[0]
    requests = None
    if first.proxy.retain:
        requests = [r for system in systems for r in system.proxy.requests]
    result = ServingResult(
        shard_stats=[system.stats for system in systems],
        slo=first.slo,
        horizon=horizon,
        end_time=now,
        requests=requests,
        submitted=submitted,
        gpu_count=gpu_count,
        gpu_hours=gpu_count * now / 3600.0,
        cost_usd=hourly_usd * now / 3600.0,
        scale_records=[r for system in systems for r in system.scale_records()],
        transfer_stats=[t for system in systems for t in system.transfer_stats()],
        label=first.label,
        shard_metrics=[system.obs.metrics.snapshot() for system in systems],
        obs=first.obs if obs is None else obs,
        controller=controller.summary() if controller is not None else None,
        sessions=sessions.summary() if sessions is not None else None,
        drained=drained,
        unaccounted=unaccounted,
    )
    if obs is None:
        (result.metrics,) = result.shard_metrics
        return result
    if obs.enabled:
        summary = result.rollup.summary()
        for key in ("slo_attainment", "ttft_p50", "ttft_p99", "tbt_p50", "tbt_p99"):
            obs.metrics.gauge(key, scope="fleet").set(float(summary[key]))
    result.metrics = obs.metrics.snapshot()
    return result


def goodput_frontier(
    points: list[tuple[float, float]], threshold: float = 0.90
) -> Optional[float]:
    """Largest x (models / rate) whose attainment stays >= threshold.

    ``points`` are (x, attainment) pairs; this locates the paper's
    vertical goodput lines in Figures 11-13.
    """
    qualifying = [x for x, attainment in points if attainment >= threshold]
    return max(qualifying) if qualifying else None
