"""Trace synthesis and replay.

A trace is a time-ordered list of :class:`TraceRequest` records — the
common input format every serving system in this reproduction consumes.
Materialized traces suit figure-scale runs; fleet-scale runs stream
requests instead (see :mod:`repro.workload.stream`), and
``RequestStream.materialize()`` bridges the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.catalog import ModelSpec
from .arrivals import poisson_arrivals
from .sharegpt import Dataset

__all__ = ["TraceRequest", "Trace", "materialize_trace"]


@dataclass(frozen=True)
class TraceRequest:
    """One request in a workload trace."""

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


@dataclass(frozen=True)
class Trace:
    """A full workload: requests plus the model list they target."""

    requests: tuple[TraceRequest, ...]
    models: tuple[ModelSpec, ...]
    horizon: float

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_rate(self) -> float:
        """Aggregate arrival rate over the horizon."""
        return len(self.requests) / self.horizon if self.horizon > 0 else 0.0

    def per_model_counts(self) -> dict[str, int]:
        """Request count per model name."""
        counts: dict[str, int] = {spec.name: 0 for spec in self.models}
        for request in self.requests:
            counts[request.model] = counts.get(request.model, 0) + 1
        return counts

    @property
    def rates(self) -> tuple[float, ...]:
        """Observed per-model arrival rate (count / horizon), ``models``-aligned."""
        counts = self.per_model_counts()
        return tuple(counts[spec.name] / self.horizon for spec in self.models)

    def spec_of(self, model_name: str) -> ModelSpec:
        """Look up the architecture of a model in this trace."""
        index = self.__dict__.get("_spec_index")
        if index is None:
            # Lazily built dict lookup (the linear scan this replaces was
            # O(models) per request — ruinous at fleet scale).
            index = {spec.name: spec for spec in self.models}
            object.__setattr__(self, "_spec_index", index)
        try:
            return index[model_name]
        except KeyError:
            raise KeyError(f"model {model_name!r} not in trace") from None


def materialize_trace(
    models: list[ModelSpec],
    rates: list[float] | np.ndarray,
    dataset: Dataset,
    horizon: float,
    seed: int = 0,
) -> Trace:
    """Build a fully materialized trace: Poisson arrivals + length samples.

    This is the paper's §7.1 workload synthesis ("scaled Poisson
    processes and random sampling from the datasets"), kept byte-stable
    for the figure benchmarks and golden tests.  New code that does not
    need the full list in memory should prefer
    :func:`repro.workload.stream.stream_trace`.
    """
    if len(models) != len(rates):
        raise ValueError(
            f"need one rate per model: {len(models)} models, {len(rates)} rates"
        )
    rng = np.random.default_rng(seed)
    requests: list[TraceRequest] = []
    request_id = 0
    for spec, rate in zip(models, rates):
        arrivals = poisson_arrivals(float(rate), horizon, rng)
        inputs, outputs = dataset.sample_arrays(rng, len(arrivals))
        for arrival, input_tokens, output_tokens in zip(arrivals, inputs, outputs):
            requests.append(
                TraceRequest(
                    request_id=request_id,
                    model=spec.name,
                    arrival=float(arrival),
                    input_tokens=int(input_tokens),
                    output_tokens=int(output_tokens),
                )
            )
            request_id += 1
    requests.sort(key=lambda r: (r.arrival, r.request_id))
    # Re-number in arrival order so request ids are chronological.
    requests = [
        TraceRequest(
            request_id=index,
            model=request.model,
            arrival=request.arrival,
            input_tokens=request.input_tokens,
            output_tokens=request.output_tokens,
        )
        for index, request in enumerate(requests)
    ]
    return Trace(requests=tuple(requests), models=tuple(models), horizon=horizon)
