"""In-memory workloads: :class:`Trace` and the §7.1 trace synthesis.

A :class:`Trace` is a :class:`~repro.workload.stream.RequestStream`
whose requests are already in memory, so every serving system and the
fleet take one or the other through the same ``serve(workload)`` /
``fleet.run(workload)`` call.  Materialized traces suit figure-scale
runs, which inspect or re-serve the full list; fleet-scale runs
generate requests lazily instead (see :mod:`repro.workload.stream`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..models.catalog import ModelSpec
from .arrivals import poisson_arrivals
from .sharegpt import Dataset
from .stream import RequestStream, TraceRequest

__all__ = ["Trace", "materialize_trace"]


class Trace(RequestStream):
    """A workload whose requests are held in memory, in arrival order.

    ``rates`` are the observed per-model arrival rates (count / horizon),
    aligned with ``models``.
    """

    def __init__(
        self,
        requests: Iterable[TraceRequest],
        models: Sequence[ModelSpec],
        horizon: float,
        name: str = "trace",
    ):
        requests = tuple(requests)
        super().__init__(models, horizon, requests.__iter__, name=name)
        self.requests = requests
        counts = self.per_model_counts()
        self.rates = tuple(counts[spec.name] / self.horizon for spec in self.models)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_rate(self) -> float:
        """Aggregate arrival rate over the horizon."""
        return len(self.requests) / self.horizon

    def per_model_counts(self) -> dict[str, int]:
        """Request count per model name."""
        counts: dict[str, int] = {spec.name: 0 for spec in self.models}
        for request in self.requests:
            counts[request.model] = counts.get(request.model, 0) + 1
        return counts


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
