"""Workload synthesis: arrivals, datasets, market skew, traces, streams.

One workload interface: every serving system's ``serve`` and the
fleet's ``run`` take a :class:`RequestStream`, an arrival-ordered,
replayable iterable of :class:`TraceRequest` records.

* Generated streams (:func:`stream_trace`, :func:`market_stream`,
  :func:`agentic_stream`, :func:`merge_streams`) hold bounded
  lookahead, the fleet-scale path.
* A :class:`Trace` (built by :func:`materialize_trace`, or as
  ``Trace(tuple(stream), stream.models, stream.horizon)``) is a stream
  whose requests are already in memory, for figure-scale runs.
"""

from .agentic import (
    AgenticConfig,
    AgenticRequest,
    SessionPlan,
    StagePlan,
    agent_variant_groups,
    agentic_stream,
    draw_session_plan,
)
from .arrivals import BurstConfig, bursty_arrivals, poisson_arrivals, rate_series
from .market import (
    MarketShape,
    PRODUCTION_SHAPE,
    deployment_rates,
    market_rates,
    market_stream,
    request_share_cdf,
)
from .sharegpt import (
    Dataset,
    LengthSample,
    SHAREGPT,
    sharegpt,
    sharegpt_ix2,
    sharegpt_ox2,
)
from .stream import RequestStream, TraceRequest, merge_streams, stream_trace
from .trace import Trace, materialize_trace

__all__ = [
    "AgenticConfig",
    "AgenticRequest",
    "BurstConfig",
    "Dataset",
    "LengthSample",
    "MarketShape",
    "PRODUCTION_SHAPE",
    "RequestStream",
    "SHAREGPT",
    "SessionPlan",
    "StagePlan",
    "Trace",
    "TraceRequest",
    "agent_variant_groups",
    "agentic_stream",
    "bursty_arrivals",
    "deployment_rates",
    "draw_session_plan",
    "market_rates",
    "market_stream",
    "materialize_trace",
    "merge_streams",
    "poisson_arrivals",
    "rate_series",
    "request_share_cdf",
    "sharegpt",
    "sharegpt_ix2",
    "sharegpt_ox2",
    "stream_trace",
]
