"""Market-shaped multi-model workloads (paper Figure 1(a), §7.5).

Production statistics the paper publishes, which this module reproduces:

* 779 models, 167.6M requests over the measurement window;
* the *tail* — 94.1% of models — receives only 1.35% of requests
  (average per-model arrival rate < 1.16 req/s, tail mean 0.037);
* head ("hot") models take the remaining 98.65% of traffic;
* the §7.5 deployment serves models with rates in [0.01, 1.13],
  averaging 0.037 req/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = [
    "MarketShape",
    "PRODUCTION_SHAPE",
    "market_rates",
    "deployment_rates",
    "request_share_cdf",
    "market_stream",
]


@dataclass(frozen=True)
class MarketShape:
    """Aggregate skew statistics of a model market."""

    model_count: int = 779
    tail_model_fraction: float = 0.941
    tail_request_fraction: float = 0.0135
    total_rate: float = 646.0  # 167.6M requests / 3 days, approx.
    zipf_exponent: float = 1.2  # within-group popularity decay

    def __post_init__(self) -> None:
        if not 0 < self.tail_model_fraction < 1:
            raise ValueError("tail_model_fraction must be in (0, 1)")
        if not 0 < self.tail_request_fraction < 1:
            raise ValueError("tail_request_fraction must be in (0, 1)")


PRODUCTION_SHAPE = MarketShape()


def market_rates(shape: MarketShape = PRODUCTION_SHAPE) -> np.ndarray:
    """Per-model arrival rates (req/s), most popular first.

    Head and tail groups each follow a Zipf profile; the two groups'
    totals are pinned to the published request split, so the generated
    market reproduces Figure 1(a)'s "94.1% of models get 1.35% of
    requests" by construction.
    """
    count = shape.model_count
    head_count = max(1, round(count * (1.0 - shape.tail_model_fraction)))
    tail_count = count - head_count

    def zipf_profile(n: int) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-shape.zipf_exponent)
        return weights / weights.sum()

    head_total = shape.total_rate * (1.0 - shape.tail_request_fraction)
    tail_total = shape.total_rate * shape.tail_request_fraction
    head = zipf_profile(head_count) * head_total
    tail = zipf_profile(tail_count) * tail_total if tail_count else np.empty(0)
    return np.concatenate([head, tail])


def deployment_rates(
    model_count: int,
    rng: np.random.Generator,
    low: float = 0.01,
    high: float = 1.13,
    mean: float = 0.037,
) -> np.ndarray:
    """Per-model rates for the §7.5 deployment scenario.

    Rates span [low, high] with the published mean — a heavily skewed
    draw (lognormal, clipped, then rescaled to hit the mean while keeping
    the extremes in range).
    """
    if not low < mean < high:
        raise ValueError("need low < mean < high")
    raw = rng.lognormal(mean=np.log(mean), sigma=1.0, size=model_count)
    raw = np.clip(raw, low, high)
    # Rescale interior points toward the target mean (keep clip bounds).
    for _ in range(32):
        error = mean - raw.mean()
        if abs(error) < 1e-6:
            break
        interior = (raw > low) & (raw < high)
        if not interior.any():
            break
        raw[interior] = np.clip(raw[interior] + error * raw.size / interior.sum(), low, high)
    return np.sort(raw)[::-1]


def request_share_cdf(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Figure 1(a): CDF of request share versus model-popularity rank.

    Returns (fraction of top models, cumulative fraction of requests).
    """
    ordered = np.sort(np.asarray(rates, dtype=float))[::-1]
    if ordered.sum() <= 0:
        raise ValueError("rates must have positive total")
    model_fraction = np.arange(1, ordered.size + 1) / ordered.size
    request_fraction = np.cumsum(ordered) / ordered.sum()
    return model_fraction, request_fraction


# -- streaming market workloads ----------------------------------------------
def market_stream(
    model_count: int,
    horizon: float,
    *,
    seed: int,
    total_rate: Optional[float] = None,
    shape: MarketShape = PRODUCTION_SHAPE,
    dataset=None,
    min_b: float = 6.0,
    max_b: float = 14.5,
    name: str = "market",
):
    """A full market workload as a bounded-memory request stream.

    Builds the Figure 1(a) market at ``model_count`` models — head/tail
    Zipf skew pinned to the published request split — and returns a
    :class:`~repro.workload.stream.RequestStream` over it.  ``total_rate``
    rescales the market's aggregate arrival rate (req/s) so the same
    skew can be replayed against any fleet capacity; the default keeps
    the production aggregate, which only a production-scale fleet can
    absorb.
    """
    from ..models.catalog import market_mix
    from .stream import stream_trace

    scaled = replace(
        shape,
        model_count=model_count,
        total_rate=shape.total_rate if total_rate is None else float(total_rate),
    )
    rates = market_rates(scaled)
    models = market_mix(model_count, min_b, max_b)
    return stream_trace(
        models, rates, dataset, horizon, seed=seed, name=name
    )
