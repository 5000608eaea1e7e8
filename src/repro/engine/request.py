"""Runtime request lifecycle.

A :class:`Request` wraps a :class:`~repro.workload.stream.TraceRequest`
with everything the serving systems mutate: phase state, per-token
completion timestamps, the count of those tokens that met their
deadlines (per-token SLO attainment, §2.1 and Figure 3), and the
request's KV-cache handle.

Token times are kept as runs, not one float per token.  A run is one
of two records:

* a bare float ``t``: one token done at ``t``, read as the chunk
  ``(t, 0.0, 1)``.  :meth:`Request.record_tokens` commits first tokens
  so;
* a :class:`Stretch`: the decode chunks one commit lands, a flat,
  exactly sized ``array('d')`` of ``start, step, steps`` per chunk,
  token ``i`` of a chunk done at ``start + (i + 1) * step``.  Every
  pool's decode loop commits through :func:`commit_stretch`: Aegaeon's
  decode runs a stretch of chunks per landing, the baselines' and
  unified foils' loops one chunk at a time, and every member of the
  batch shares the one record.

:class:`TokenTimes` reads them back as a sequence of floats, and
``Request.decode_exec_time`` folds them.  A reader walks a run's chunks
through :func:`run_chunks`.
"""

from __future__ import annotations

import enum
import operator
from array import array
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from ..models.catalog import ModelSpec
from ..transfer.kv_transfer import RequestKv
from ..workload.stream import TraceRequest

if TYPE_CHECKING:
    from ..core.slo import SloSpec

__all__ = [
    "Phase",
    "Request",
    "Stretch",
    "TokenTimes",
    "commit_stretch",
    "run_chunks",
]


class Phase(enum.Enum):
    """Where a request is in its lifecycle."""

    QUEUED = "queued"  # waiting for prefill
    PREFILLING = "prefilling"
    DECODING = "decoding"  # includes waiting in a work list
    FINISHED = "finished"
    FAILED = "failed"  # gave up mid-flight (e.g. retries exhausted)
    REJECTED = "rejected"  # turned away at admission (no live capacity)


@dataclass(eq=False, slots=True)
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
    # Token completion times as runs, floats or stretches (see the
    # module docstring); ``token_times`` views them.  A stretch is shared
    # with the request's batch-mates and never mutated.
    runs: list = field(init=False, repr=False, default_factory=list)
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
    # Set by a policy that rejects the request on purpose (the cost
    # router's session budget): the fleet must not spill it elsewhere.
    no_spill: bool = field(init=False, repr=False, default=False)
    # Seconds a decode turn stalled on this request's KV transfers
    # (``TransferStats.charge_wait``): Figure 14's data overhead and
    # Figure 15's per-request KV sync.
    kv_sync: float = field(init=False, repr=False, default=0.0)

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
        run = runs[0]
        if type(run) is float:
            return run
        return run[0] + run[1]

    @property
    def last_token_time(self) -> Optional[float]:
        runs = self.runs
        if not runs:
            return None
        run = runs[-1]
        if type(run) is float:
            return run
        return run[-3] + run[-1] * run[-2]

    @property
    def decode_exec_time(self) -> float:
        """Time this request's batch spent decoding while the request was
        in it (Figure 14's latency breakdown): each chunk's ``steps *
        step``, folded left in commit order (a prefill token's run adds
        ``+0.0``)."""
        total = 0.0
        for run in self.runs:
            chunks = run_chunks(run)
            for k in range(1, len(chunks), 3):
                total += chunks[k + 1] * chunks[k]
        return total

    # -- mutation ----------------------------------------------------------
    def record_tokens(self, times: Sequence[float]) -> None:
        """Append completion timestamps for newly generated tokens, a
        bare float run each."""
        first = self.generated_tokens
        generated = first + len(times)
        if generated > self.output_tokens:
            raise ValueError(
                f"request {self.request_id}: generated past output length"
            )
        self.met_tokens += count_met(times, self.slo_base, self.slo_tbt, first)
        self.runs.extend([float(t) for t in times])
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


class Stretch(array):
    """The decode chunks one commit lands, as one token record.

    A stretch is an exactly sized ``array('d')`` copied from a layout of
    back-to-back chunks (one chunk for a baseline's commit), ``start,
    step, steps`` each: chunk ``c``'s
    token ``i`` is done at ``stretch[3c] + (i + 1) * stretch[3c + 1]``,
    and chunk ``c + 1`` starts where chunk ``c`` ends.  A double holds
    each value exactly, so every token time keeps its bits.  ``tokens``
    counts its tokens.  Every member of the batch shares one stretch,
    and nothing changes it.
    """

    __slots__ = ()

    def __new__(cls, layout: Sequence) -> "Stretch":
        return array.__new__(cls, "d", layout)

    @property
    def tokens(self) -> int:
        return int(sum(self[2::3]))


def run_chunks(run) -> Sequence:
    """``run``'s chunks as one flat sequence, ``start, step, steps`` per
    chunk: a bare float ``t`` is ``(t, 0.0, 1)``, and a stretch is
    itself, where ``steps`` is a float."""
    return (run, 0.0, 1) if type(run) is float else run


def commit_stretch(requests: Sequence[Request], stretch: Stretch) -> None:
    """Commit a stretch of decode chunks to every request of a batch:
    each request appends the one shared ``stretch`` and gains its tokens
    (which never exceed its remaining ones).  A decode run's landing
    commits every chunk it lands; a baseline's loop one chunk at a time.

    Met tokens are bracketed per chunk.  A chunk's times are
    non-decreasing and so are a request's deadlines (float rounding is
    monotone), so a chunk whose last time meets its first token's
    deadline is all met, and one whose first time misses its last
    token's deadline is all missed; only a chunk straddling a deadline
    is counted token by token.  ``met_until`` is an earlier deadline
    than the next token's, so a chunk done by then needs no arithmetic;
    it is brought up to the chunk's first token's deadline only when the
    chunk ends after it.

    Across a stretch the same brackets cover the rest of it at once; a
    run's token times do not decrease.  The chunks ending by
    ``met_until`` are met; the first chunk ending after it, found by
    bisecting the chunk ends, brings ``met_until`` up to its first
    token's deadline.  Every token from there on is met when the
    stretch's last time meets that deadline, and none is when that
    chunk's first time misses the stretch's last token's deadline (each
    later chunk then moves ``met_until`` on, to the final chunk's first
    deadline).  Otherwise the chunk is counted on its own, and the same
    brackets are tried again at the next chunk that ends after
    ``met_until``.  A one-chunk stretch takes that per-chunk path
    directly.
    """
    final = len(stretch) // 3 - 1
    k = 3 * final
    last_time = stretch[k] + stretch[k + 2] * stretch[k + 1]
    last_steps = int(stretch[k + 2])
    tokens = stretch.tokens if final else last_steps
    first_end = stretch[3] if final else last_time
    for request in requests:
        generated = request.generated_tokens
        met_until = request.met_until
        if last_time <= met_until:
            request.met_tokens += tokens
        else:
            base = request.slo_base
            tbt = request.slo_tbt
            # The first chunk ending after ``met_until`` (chunk c ends
            # where chunk c + 1 starts, and the final chunk ends after
            # it); the chunks before it are met.
            lo = met = 0
            if first_end <= met_until:
                lo, hi = 1, final
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if stretch[3 * mid + 3] <= met_until:
                        lo = mid + 1
                    else:
                        hi = mid
                met = int(sum(stretch[2 : 3 * lo + 2 : 3]))
            # Then chunk by chunk: a chunk ending after ``due`` brings it
            # up to its first token's deadline, and the brackets settle
            # every chunk from there on at once.
            count = generated + met
            due = met_until
            for k in range(3 * lo, 3 * final + 3, 3):
                start = stretch[k]
                step = stretch[k + 1]
                steps = int(stretch[k + 2])
                end = start + steps * step
                if end > due:
                    due = base + tbt * count
                    if last_time <= due:
                        met += generated + tokens - count
                        break
                    if start + step > base + tbt * (generated + tokens - 1):
                        due = base + tbt * (generated + tokens - last_steps)
                        break
                    if end > due:
                        if start + step <= base + tbt * (count + steps - 1):
                            times = [start + (i + 1) * step for i in range(steps)]
                            met += count_met(times, base, tbt, count)
                        count += steps
                        continue
                met += steps
                count += steps
            request.met_until = due
            request.met_tokens += met
        request.runs.append(stretch)
        request.generated_tokens = generated + tokens


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
        request = self._request
        count = request.generated_tokens
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("token index out of range")
        if index == count - 1:
            return request.last_token_time
        if not index:
            return request.first_token_time
        for run in request.runs:
            if type(run) is Stretch:
                tokens = run.tokens
                if index >= tokens:
                    index -= tokens
                    continue
            chunks = run_chunks(run)
            for k in range(0, len(chunks), 3):
                n = chunks[k + 2]
                if index < n:
                    return chunks[k] + (index + 1) * chunks[k + 1]
                index -= int(n)
        raise AssertionError("runs hold fewer tokens than generated_tokens")

    def __iter__(self) -> Iterator[float]:
        for run in self._request.runs:
            chunks = run_chunks(run)
            for k in range(0, len(chunks), 3):
                start = chunks[k]
                step = chunks[k + 1]
                for i in range(1, int(chunks[k + 2]) + 1):
                    yield start + i * step

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenTimes):
            other = list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TokenTimes({list(self)!r})"
