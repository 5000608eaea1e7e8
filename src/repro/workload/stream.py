"""The workload interface: :class:`RequestStream` and its generators.

Every serving system and the fleet consume one interface: a
:class:`RequestStream` is a replayable *iterable* of
:class:`TraceRequest` records in arrival order, plus the metadata a run
needs up front (``models``, ``horizon``, per-model ``rates``).  A
:class:`~repro.workload.trace.Trace` is the stream whose requests are
already in memory; the generators here (:func:`stream_trace`,
:func:`merge_streams`) hold **bounded lookahead** instead — at any
moment at most one pending arrival per model (a k-way merge over
per-model Poisson processes), so peak memory is O(models), independent
of the request count.

Determinism contract
--------------------
A stream is a *recipe*, not a buffer: iterating the same
:class:`RequestStream` twice replays the identical request sequence,
because every model draws from its own :class:`numpy.random.Generator`
seeded by ``SeedSequence(seed).spawn(model_count)``.  Two processes
constructing the same stream therefore agree byte for byte — the
property the fleet's reproducibility tests pin.  To hold a generated
stream in memory, write ``Trace(tuple(stream), stream.models,
stream.horizon)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..models.catalog import ModelSpec
from .sharegpt import Dataset, sharegpt

__all__ = ["TraceRequest", "RequestStream", "merge_streams", "stream_trace"]


@dataclass(frozen=True)
class TraceRequest:
    """One request in a workload."""

    request_id: int
    model: str
    arrival: float
    input_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("token counts must be positive")
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")


class RequestStream:
    """A replayable, arrival-ordered request source: the workload interface.

    ``factory`` builds a fresh iterator of :class:`TraceRequest` records
    each time the stream is iterated; ``models`` and ``horizon`` carry
    the metadata a serving system needs up front (cache warming, drain
    deadline) without touching the request sequence itself.
    """

    def __init__(
        self,
        models: Sequence[ModelSpec],
        horizon: float,
        factory: Callable[[], Iterator[TraceRequest]],
        rates: Optional[Sequence[float]] = None,
        name: str = "stream",
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.models = tuple(models)
        self.horizon = float(horizon)
        self.rates = None if rates is None else tuple(float(r) for r in rates)
        self.name = name
        self._factory = factory
        self._specs = {spec.name: spec for spec in self.models}

    def __iter__(self) -> Iterator[TraceRequest]:
        return self._factory()

    def spec_of(self, model_name: str) -> ModelSpec:
        """Look up the architecture of a model in this stream."""
        try:
            return self._specs[model_name]
        except KeyError:
            raise KeyError(f"model {model_name!r} not in stream") from None

    @property
    def expected_requests(self) -> Optional[float]:
        """Expected request count (``sum(rates) * horizon``) if rates are known."""
        if self.rates is None:
            return None
        return float(sum(self.rates)) * self.horizon

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} models={len(self.models)} "
            f"horizon={self.horizon:g}s>"
        )


def stream_trace(
    models: Sequence[ModelSpec],
    rates: Sequence[float] | np.ndarray,
    dataset: Optional[Dataset] = None,
    horizon: float = 150.0,
    seed: int = 0,
    start_id: int = 0,
    name: str = "stream",
) -> RequestStream:
    """Streaming counterpart of the materialized trace synthesis.

    Per-model Poisson arrivals (exponential inter-arrival increments)
    and per-request dataset length draws, merged into one arrival-ordered
    sequence through a heap that holds exactly one pending request per
    model.  Request ids are assigned in arrival order starting at
    ``start_id``, so ids are chronological and disjoint streams can be
    concatenated by offsetting ``start_id``.

    Each model consumes its own RNG stream
    (``SeedSequence(seed).spawn(len(models))``), which is what makes the
    sequence independent of consumption pattern and identical across
    re-iterations and processes.
    """
    if len(models) != len(rates):
        raise ValueError(
            f"need one rate per model: {len(models)} models, {len(rates)} rates"
        )
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    dataset = dataset if dataset is not None else sharegpt()
    model_tuple = tuple(models)
    rate_tuple = tuple(float(r) for r in rates)
    for rate in rate_tuple:
        if rate < 0:
            raise ValueError("rates must be non-negative")

    def _iterate() -> Iterator[TraceRequest]:
        children = np.random.SeedSequence(seed).spawn(len(model_tuple))
        rngs = [np.random.default_rng(child) for child in children]
        # Heap of (next_arrival, model_index): one pending entry per
        # model is the entire lookahead buffer.
        heap: list[tuple[float, int]] = []
        for index, rate in enumerate(rate_tuple):
            if rate <= 0:
                continue
            first = float(rngs[index].exponential(1.0 / rate))
            if first < horizon:
                heap.append((first, index))
        heapq.heapify(heap)
        request_id = start_id
        while heap:
            arrival, index = heapq.heappop(heap)
            rng = rngs[index]
            sample = dataset.draw(rng)
            yield TraceRequest(
                request_id=request_id,
                model=model_tuple[index].name,
                arrival=arrival,
                input_tokens=sample.input_tokens,
                output_tokens=sample.output_tokens,
            )
            request_id += 1
            nxt = arrival + float(rng.exponential(1.0 / rate_tuple[index]))
            if nxt < horizon:
                heapq.heappush(heap, (nxt, index))

    return RequestStream(
        model_tuple, horizon, _iterate, rates=rate_tuple, name=name
    )


def merge_streams(*streams: RequestStream, name: str = "merged") -> RequestStream:
    """Merge streams into one arrival-ordered stream (bounded lookahead).

    The merge is a k-way heap over the component iterators keyed on
    ``(arrival, request_id)``, so it holds at most one pending request
    per component and is deterministic whenever the components are.
    The component streams must have **disjoint request-id ranges** —
    that is the caller's responsibility (offset ``start_id``; agentic
    streams default to the 1e6 block for exactly this reason).  Models
    are unioned by name; horizon is the max of the components'.
    """
    if not streams:
        raise ValueError("need at least one stream to merge")
    specs: dict[str, ModelSpec] = {}
    for stream in streams:
        for spec in stream.models:
            specs.setdefault(spec.name, spec)
    horizon = max(stream.horizon for stream in streams)
    components = tuple(streams)

    def _iterate() -> Iterator[TraceRequest]:
        return heapq.merge(
            *(iter(stream) for stream in components),
            key=lambda request: (request.arrival, request.request_id),
        )

    return RequestStream(tuple(specs.values()), horizon, _iterate, name=name)
