"""Exporters: Chrome timeline, CSV metric dumps, switch breakdowns.

The Chrome exporter emits the ``trace_event`` JSON format loadable in
``chrome://tracing`` / Perfetto: each tracer track becomes a named
thread, spans become complete (``X``) events, instants become ``i``
events, and counter samples become ``C`` events.  Simulated seconds map
to trace microseconds.

``switch_breakdown`` rebuilds the Figure 8/15-style per-stage scaling
breakdown directly from a trace dump, so figure tables no longer scrape
engine internals.
"""

from __future__ import annotations

import json
from typing import IO, Optional, Union

from .metrics import MetricsRegistry
from .tracer import SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "metrics_to_csv",
    "switch_breakdown",
    "format_switch_breakdown",
]

_PID = 1
_SECONDS_TO_US = 1e6

# Span categories emitted by the engine's scaling state machine.
SWITCH_CAT = "switch"
SWITCH_STAGE_CAT = "switch.stage"


def _track_ids(tracks: list[str]) -> dict[str, int]:
    return {track: tid for tid, track in enumerate(sorted(set(tracks)), start=1)}


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer's records as a Chrome ``trace_event`` document."""
    tracks = (
        [span.track for span in tracer.spans]
        + [instant.track for instant in tracer.instants]
        + [sample.track for sample in tracer.counters]
    )
    tids = _track_ids(tracks)
    events: list[dict] = []
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": tids[span.track],
                "name": span.name,
                "cat": span.cat or "span",
                "ts": span.start * _SECONDS_TO_US,
                "dur": span.duration * _SECONDS_TO_US,
                "args": dict(span.args),
            }
        )
    for instant in tracer.instants:
        events.append(
            {
                "ph": "i",
                "pid": _PID,
                "tid": tids[instant.track],
                "name": instant.name,
                "cat": instant.cat or "instant",
                "ts": instant.ts * _SECONDS_TO_US,
                "s": "t",
                "args": dict(instant.args),
            }
        )
    for sample in tracer.counters:
        events.append(
            {
                "ph": "C",
                "pid": _PID,
                "tid": tids[sample.track],
                "name": sample.name,
                "ts": sample.ts * _SECONDS_TO_US,
                "args": {"value": sample.value},
            }
        )
    # Stable render order for diffing: by timestamp, metadata first.
    events.sort(key=lambda event: (event.get("ts", -1.0), event["tid"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, destination: Union[str, IO[str]]) -> None:
    """Write the Chrome timeline JSON to a path or open text file."""
    document = chrome_trace(tracer)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(document, handle)
    else:
        json.dump(document, destination)


# -- metrics dumps -----------------------------------------------------------
def metrics_to_csv(registry: MetricsRegistry) -> str:
    """The registry snapshot as ``metric,value`` CSV rows.

    Histogram summaries flatten to dotted keys (``name.p99``).
    """
    lines = ["metric,value"]
    for key, value in registry.snapshot().items():
        if isinstance(value, dict):
            for stat, stat_value in value.items():
                lines.append(f"{key}.{stat},{stat_value:g}")
        else:
            lines.append(f"{key},{value:g}")
    return "\n".join(lines) + "\n"


# -- figure-style breakdowns -------------------------------------------------
def switch_breakdown(
    tracer: Tracer, track: Optional[str] = None
) -> dict[str, float]:
    """Total seconds per auto-scaling stage, straight from the trace.

    Aggregates every ``switch.stage`` span (optionally restricted to one
    engine's track) — the per-stage view behind Figures 8 and 15.
    """
    totals: dict[str, float] = {}
    for span in tracer.spans:
        if span.cat != SWITCH_STAGE_CAT:
            continue
        if track is not None and span.track != track:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def _switch_spans(tracer: Tracer) -> list[SpanRecord]:
    return [span for span in tracer.spans if span.cat == SWITCH_CAT]


def format_switch_breakdown(tracer: Tracer) -> str:
    """Human-readable per-stage switch summary from a trace dump."""
    switches = _switch_spans(tracer)
    stages = switch_breakdown(tracer)
    if not switches:
        return "no model switches recorded"
    total = sum(span.duration for span in switches)
    hits = sum(1 for span in switches if span.args.get("prefetch_hit"))
    lines = [
        f"model switches: {len(switches)}, total {total:.3f} s, "
        f"prefetch hits {hits}/{len(switches)}"
    ]
    width = max(len(name) for name in stages) if stages else 0
    for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total > 0 else 0.0
        lines.append(f"  {name.ljust(width)}  {seconds:8.3f} s  {share:6.1%}")
    return "\n".join(lines)
