"""Runtime request lifecycle.

A :class:`Request` wraps a :class:`~repro.workload.stream.TraceRequest`
with everything the serving systems mutate: phase state, per-token
completion timestamps, the count of those tokens that met their
deadlines (per-token SLO attainment, §2.1 and Figure 3), and the
request's KV-cache handle.

Token times are kept as runs, not one float per token: a run
``(start, step, n)`` holds ``n`` tokens, token ``i`` of it done at
``start + (i + 1) * step``.  A decode chunk is one run object shared by
every request of its batch; a first token at ``t`` is ``(t, 0.0, 1)``.
:class:`TokenTimes` reads them back as a sequence of floats.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from ..models.catalog import ModelSpec
from ..transfer.kv_transfer import RequestKv
from ..workload.stream import TraceRequest

if TYPE_CHECKING:
    from ..core.slo import SloSpec

__all__ = ["Phase", "Request", "TokenTimes", "commit_chunk"]


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
    # ``generated_tokens`` is maintained as tokens are committed so the
    # per-step scheduler loops read plain slots instead of chasing trace
    # delegation / ``len(token_times)`` through properties millions of
    # times per run.
    request_id: int = field(init=False, repr=False)
    input_tokens: int = field(init=False, repr=False)
    output_tokens: int = field(init=False, repr=False)
    generated_tokens: int = field(init=False, repr=False, default=0)
    # Token completion times as ``(start, step, n)`` runs (see the
    # module docstring); ``token_times`` views them.  A decode chunk's
    # run is shared with its batch-mates and never mutated.
    runs: list[tuple[float, float, int]] = field(
        init=False, repr=False, default_factory=list
    )
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
    def token_times(self) -> "TokenTimes":
        """Each generated token's completion time, read from the runs."""
        return TokenTimes(self)

    @property
    def first_token_time(self) -> Optional[float]:
        runs = self.runs
        if not runs:
            return None
        start, step, _ = runs[0]
        return start + step

    @property
    def last_token_time(self) -> Optional[float]:
        runs = self.runs
        if not runs:
            return None
        start, step, n = runs[-1]
        return start + n * step

    # -- mutation ----------------------------------------------------------
    def record_tokens(self, times: Sequence[float]) -> None:
        """Append completion timestamps for newly generated tokens, a run
        of one each."""
        first = self.generated_tokens
        generated = first + len(times)
        if generated > self.output_tokens:
            raise ValueError(
                f"request {self.request_id}: generated past output length"
            )
        self.met_tokens += count_met(times, self.slo_base, self.slo_tbt, first)
        self.runs.extend([(t, 0.0, 1) for t in times])
        self.generated_tokens = generated

    def reset_progress(self) -> None:
        """Restart from prefill: discard generated tokens and their times."""
        self.runs.clear()
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
    step``, appended to each request as the one shared run ``(chunk_start,
    step, steps)`` (``steps`` never exceeds a request's remaining
    tokens).

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
    # One run object shared across the batch: token i of the chunk is
    # ``chunk_start + (i + 1) * step``.  The per-token list is built only
    # for a straddling chunk, at most once.
    run = (chunk_start, step, steps)
    first_time = chunk_start + step
    chunk_time = steps * step
    last_time = chunk_start + chunk_time
    times = None
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
                if times is None:
                    times = [chunk_start + (i + 1) * step for i in range(steps)]
                request.met_tokens += count_met(times, base, tbt, generated)
        request.runs.append(run)
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


class TokenTimes(Sequence):
    """A read-only view of a request's token completion times.

    Nothing is copied: every value is computed from the request's runs
    with the expression the decode loops commit, so it is bit-identical
    to a per-token list.  ``len``, ``[0]`` and ``[-1]`` are O(1); any
    other index walks the runs; a slice is a new list.  It compares
    equal to a list (or another view) holding the same floats.
    """

    __slots__ = ("_request",)

    def __init__(self, request: Request) -> None:
        self._request = request

    def __len__(self) -> int:
        return self._request.generated_tokens

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        index = operator.index(index)
        count = self._request.generated_tokens
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("token index out of range")
        runs = self._request.runs
        if index == count - 1:
            start, step, n = runs[-1]
            return start + n * step
        for start, step, n in runs:
            if index < n:
                return start + (index + 1) * step
            index -= n
        raise AssertionError("runs hold fewer tokens than generated_tokens")

    def __iter__(self) -> Iterator[float]:
        for start, step, n in self._request.runs:
            for i in range(1, n + 1):
                yield start + i * step

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenTimes):
            other = list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TokenTimes({list(self)!r})"
