"""Runtime request lifecycle.

A :class:`Request` wraps a :class:`~repro.workload.stream.TraceRequest`
with everything the serving systems mutate: phase state, per-token
completion timestamps, the count of those tokens that met their
deadlines (per-token SLO attainment, §2.1 and Figure 3), and the
request's KV-cache handle.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..models.catalog import ModelSpec
from ..transfer.kv_transfer import RequestKv
from ..workload.stream import TraceRequest

if TYPE_CHECKING:
    from ..core.slo import SloSpec

__all__ = ["Phase", "Request", "commit_chunk"]


class Phase(enum.Enum):
    """Where a request is in its lifecycle."""

    QUEUED = "queued"  # waiting for prefill
    PREFILLING = "prefilling"
    DECODING = "decoding"  # includes waiting in a work list
    FINISHED = "finished"
    FAILED = "failed"  # gave up mid-flight (e.g. retries exhausted)
    REJECTED = "rejected"  # turned away at admission (no live capacity)


@dataclass(eq=False)
class Request:
    """One in-flight request.

    Requests compare and hash by identity: two requests built from
    equal traces are still two requests, and list ``remove``/``in``
    must find the very object, without comparing field by field.
    """

    trace: TraceRequest
    spec: ModelSpec
    phase: Phase = Phase.QUEUED
    token_times: list[float] = field(default_factory=list)
    kv: Optional[RequestKv] = None
    prefill_start: Optional[float] = None
    prefill_end: Optional[float] = None
    decode_enqueue: Optional[float] = None
    finish_time: Optional[float] = None
    # Time this request's batch actually spent decoding while the
    # request was in it (feeds the Figure 14 latency breakdown).
    decode_exec_time: float = 0.0
    # Flattened hot fields.  ``request_id``, ``input_tokens`` and
    # ``output_tokens`` are copied out of the trace and
    # ``generated_tokens`` is maintained by ``record_tokens`` so the
    # per-step scheduler loops read plain slots instead of chasing trace
    # delegation / ``len(token_times)`` through properties millions of
    # times per run.
    request_id: int = field(init=False, repr=False)
    input_tokens: int = field(init=False, repr=False)
    output_tokens: int = field(init=False, repr=False)
    generated_tokens: int = field(init=False, repr=False, default=0)
    # Per-token SLO accounting, kept as tokens are committed: token k
    # meets its deadline iff ``token_times[k] <= slo_base + slo_tbt * k``
    # (exactly ``core.slo.tokens_met``'s float expression).
    # ``met_tokens`` is what every attainment reader folds.
    # ``met_until`` is the deadline of some token at or before the next
    # one: a token done by then is met, whatever its index.
    slo: InitVar[Optional["SloSpec"]] = None
    slo_base: float = field(init=False, repr=False, default=0.0)
    slo_tbt: float = field(init=False, repr=False, default=0.0)
    met_tokens: int = field(init=False, repr=False, default=0)
    met_until: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self, slo: Optional["SloSpec"]) -> None:
        trace = self.trace
        self.request_id = trace.request_id
        self.input_tokens = trace.input_tokens
        self.output_tokens = trace.output_tokens
        if slo is None:
            from ..core.slo import DEFAULT_SLO  # core imports this module

            slo = DEFAULT_SLO
        self.slo_base = self.met_until = trace.arrival + slo.ttft
        self.slo_tbt = slo.tbt
        self.generated_tokens = len(self.token_times)
        self.met_tokens = count_met(
            self.token_times, self.slo_base, self.slo_tbt, 0
        )

    # -- identity ----------------------------------------------------------
    @property
    def model(self) -> str:
        return self.trace.model

    @property
    def arrival(self) -> float:
        return self.trace.arrival

    # -- progress ----------------------------------------------------------
    @property
    def remaining_tokens(self) -> int:
        return self.output_tokens - self.generated_tokens

    @property
    def finished(self) -> bool:
        return self.generated_tokens >= self.output_tokens

    @property
    def context_tokens(self) -> int:
        """Current sequence length (prompt + generated)."""
        return self.input_tokens + self.generated_tokens

    @property
    def first_token_time(self) -> Optional[float]:
        return self.token_times[0] if self.token_times else None

    # -- mutation ----------------------------------------------------------
    def record_tokens(self, times: list[float]) -> None:
        """Append completion timestamps for newly generated tokens."""
        first = self.generated_tokens
        generated = first + len(times)
        if generated > self.output_tokens:
            raise ValueError(
                f"request {self.request_id}: generated past output length"
            )
        self.met_tokens += count_met(times, self.slo_base, self.slo_tbt, first)
        self.token_times.extend(times)
        self.generated_tokens = generated

    def reset_progress(self) -> None:
        """Restart from prefill: discard generated tokens and their times."""
        self.token_times.clear()
        self.generated_tokens = 0
        self.met_tokens = 0
        self.met_until = self.slo_base

    def complete(self, now: float) -> None:
        """Mark the request finished."""
        if not self.finished:
            raise ValueError(f"request {self.request_id} has tokens remaining")
        self.phase = Phase.FINISHED
        self.finish_time = now

    def __repr__(self) -> str:
        return (
            f"<Request {self.request_id} {self.model} {self.phase.value} "
            f"{self.generated_tokens}/{self.output_tokens}>"
        )


def commit_chunk(
    requests: Sequence[Request], chunk_start: float, step: float, steps: int
) -> None:
    """Commit one decode chunk to every request of a batch: ``steps``
    tokens, ``step`` seconds apart, the first done at ``chunk_start +
    step`` (the inline :meth:`Request.record_tokens` of the decode
    loops; ``steps`` never exceeds a request's remaining tokens).

    Met tokens are bracketed by the chunk's ends.  A chunk's times are
    non-decreasing and so are a request's deadlines (float rounding is
    monotone), so the last time meeting the first token's deadline means
    every token is met, and the first time missing the last token's
    deadline means none is.  Only a chunk straddling a deadline is
    counted token by token.  ``met_until`` is an earlier deadline than
    the first token's, so a chunk done by then needs no arithmetic; it
    is brought up to the first token's deadline only when the chunk
    ends after it.
    """
    # One timestamp list shared across the batch: ``+=`` copies it into
    # each request, so the shared list is never aliased.
    times = [chunk_start + (i + 1) * step for i in range(steps)]
    first_time = times[0]
    last_time = times[-1]
    chunk_time = steps * step
    for request in requests:
        generated = request.generated_tokens
        if last_time <= request.met_until:
            request.met_tokens += steps
        else:
            base = request.slo_base
            tbt = request.slo_tbt
            due = request.met_until = base + tbt * generated
            if last_time <= due:
                request.met_tokens += steps
            elif first_time <= base + tbt * (generated + steps - 1):
                request.met_tokens += count_met(times, base, tbt, generated)
        request.token_times += times
        request.generated_tokens = generated + steps
        request.decode_exec_time += chunk_time


def count_met(times: Sequence[float], base: float, tbt: float, first: int) -> int:
    """How many of ``times`` meet their deadlines, the first being token
    ``first`` of a request whose token k is due at ``base + tbt * k``:
    the one per-token loop, exact for times in any order."""
    met = 0
    for t in times:
        if t <= base + tbt * first:
            met += 1
        first += 1
    return met
