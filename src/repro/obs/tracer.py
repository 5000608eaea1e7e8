"""Typed span/event tracing on the simulated clock.

The :class:`Tracer` records three kinds of typed records, all stamped
with simulated time:

* :class:`SpanRecord` — an interval on one *track* (a component such as
  ``decode3`` or ``prefill0.kv_in``): request lifecycle stages, scheduling
  rounds, model switches with per-stage children, KV transfers.
* :class:`InstantRecord` — a point event (a dispatch decision, a swap
  issued).
* :class:`CounterSample` — a timestamped numeric sample (queue depth over
  time), rendered as a counter track by the Chrome trace viewer.

Nesting is tracked per track: a span opened while another span on the
same track is open records that span's name as its ``parent``.  When the
tracer is disabled every call is a no-op against shared singletons, so
instrumented hot paths pay one attribute test and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Tracer", "SpanRecord", "InstantRecord", "CounterSample", "NULL_SPAN"]


@dataclass
class SpanRecord:
    """One completed interval on a track."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)
    parent: Optional[str] = None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start

    def contains(self, other: "SpanRecord") -> bool:
        """True if ``other`` lies within this span on the same track."""
        return (
            self.track == other.track
            and self.start <= other.start
            and other.end <= self.end
            and other is not self
        )


@dataclass
class InstantRecord:
    """One point event on a track."""

    name: str
    cat: str
    track: str
    ts: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class CounterSample:
    """One timestamped numeric sample (a counter-track point)."""

    name: str
    track: str
    ts: float
    value: float


class _Span:
    """Context manager recording one span on enter/exit."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self._record = record

    def set(self, **args: Any) -> "_Span":
        """Attach arguments discovered while the span is open."""
        self._record.args.update(args)
        return self

    def __enter__(self) -> "_Span":
        stack = self._tracer._stacks.setdefault(self._record.track, [])
        if stack:
            self._record.parent = stack[-1].name
        stack.append(self._record)
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        record = self._record
        record.end = tracer._clock()
        stack = tracer._stacks.get(record.track)
        if stack and stack[-1] is record:
            stack.pop()
        if tracer._deferred:
            tracer.flush()
        tracer.spans.append(record)


class _NullSpan:
    """Shared no-op span for the disabled tracer."""

    __slots__ = ()

    def set(self, **args: Any) -> "_NullSpan":
        """No-op."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: The no-op span a disabled tracer hands out; a hot loop that checks
#: ``tracer.enabled`` itself uses it to skip building the span's args.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects typed span/instant/counter records on a simulated clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None, enabled: bool = True):
        self.enabled = enabled
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.counters: list[CounterSample] = []
        # Per-track stacks of currently-open spans (for parent linkage).
        self._stacks: dict[str, list[SpanRecord]] = {}
        # Spans recorded ahead of their end (defer): a heap of
        # [end, order, record] entries, the record None once withdrawn.
        self._deferred: list[list] = []
        self._deferrals = 0

    # -- recording ----------------------------------------------------------
    def span(self, name: str, cat: str = "", track: str = "", **args: Any):
        """Open a span; use as ``with tracer.span(...):`` around the work."""
        if not self.enabled:
            return NULL_SPAN
        record = SpanRecord(
            name=name, cat=cat, track=track, start=self._clock(), end=0.0, args=args
        )
        return _Span(self, record)

    def complete(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record an already-measured interval (retroactive span)."""
        if not self.enabled:
            return
        if self._deferred:
            self.flush()
        self.spans.append(
            SpanRecord(
                name=name, cat=cat, track=track, start=start, end=end,
                args=args, parent=parent,
            )
        )

    def defer(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        **args: Any,
    ) -> list:
        """Record an interval that ends later, at ``end``.

        It joins :attr:`spans` where a span closed at ``end`` would
        have: before the first record made once the clock has reached
        ``end`` (deferred spans go in end order), or at :meth:`flush`.
        Returns a handle for :meth:`withdraw`.
        """
        entry = [end, self._deferrals, SpanRecord(
            name=name, cat=cat, track=track, start=start, end=end,
            args=args, parent=parent,
        )]
        self._deferrals += 1
        heappush(self._deferred, entry)
        return entry

    @staticmethod
    def withdraw(entry: list) -> None:
        """Drop a deferred span that will not happen after all."""
        entry[2] = None

    def flush(self) -> None:
        """Record every deferred span whose end the clock has reached."""
        deferred = self._deferred
        now = self._clock()
        while deferred and deferred[0][0] <= now:
            record = heappop(deferred)[2]
            if record is not None:
                self.spans.append(record)

    def innermost(self, track: str) -> Optional[str]:
        """The innermost span open on ``track``: the parent a span opened
        there now would record (a retroactive span passes it on)."""
        stack = self._stacks.get(track)
        return stack[-1].name if stack else None

    def instant(self, name: str, cat: str = "", track: str = "", **args: Any) -> None:
        """Record a point event at the current simulated time."""
        if not self.enabled:
            return
        self.instants.append(
            InstantRecord(name=name, cat=cat, track=track, ts=self._clock(), args=args)
        )

    def counter(self, name: str, track: str, value: float) -> None:
        """Record one timestamped counter sample."""
        if not self.enabled:
            return
        self.counters.append(
            CounterSample(name=name, track=track, ts=self._clock(), value=value)
        )

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    def spans_named(self, name: str) -> list[SpanRecord]:
        """All spans with ``name``, in completion order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, parent: SpanRecord) -> list[SpanRecord]:
        """Spans nested (by time containment) directly under ``parent``."""
        return [
            span
            for span in self.spans
            if parent.contains(span) and span.parent == parent.name
        ]

    def clear(self) -> None:
        """Drop all records (open spans keep recording into the new lists)."""
        self.spans = []
        self.instants = []
        self.counters = []
