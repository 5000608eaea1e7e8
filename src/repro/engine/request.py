"""Runtime request lifecycle.

A :class:`Request` wraps a :class:`~repro.workload.stream.TraceRequest`
with everything the serving systems mutate: phase state, per-token
completion timestamps (the raw data behind per-token SLO attainment,
Figure 3), and the request's KV-cache handle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..models.catalog import ModelSpec
from ..transfer.kv_transfer import RequestKv
from ..workload.stream import TraceRequest

__all__ = ["Phase", "Request"]


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

    def __post_init__(self) -> None:
        trace = self.trace
        self.request_id = trace.request_id
        self.input_tokens = trace.input_tokens
        self.output_tokens = trace.output_tokens
        self.generated_tokens = len(self.token_times)

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
        generated = self.generated_tokens + len(times)
        if generated > self.output_tokens:
            raise ValueError(
                f"request {self.request_id}: generated past output length"
            )
        self.token_times.extend(times)
        self.generated_tokens = generated

    def reset_progress(self) -> None:
        """Restart from prefill: discard generated tokens and their times."""
        self.token_times.clear()
        self.generated_tokens = 0

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
