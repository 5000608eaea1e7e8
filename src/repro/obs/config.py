"""Observability level configuration.

One :class:`ObsConfig` travels with every system config and selects how
much the run records: nothing (the default — near-zero overhead),
metrics only, or metrics plus a full span/event trace suitable for the
Chrome ``trace_event`` timeline viewer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["ObsConfig"]

# Environment variable selecting the observability level for runs built
# through ``RunSettings.from_env()`` (benchmarks, CI smoke runs).
OBS_ENV_VAR = "REPRO_OBS"

_LEVELS = {
    "": (False, False),
    "off": (False, False),
    "metrics": (True, False),
    "full": (True, True),
}


@dataclass(frozen=True)
class ObsConfig:
    """What a run records: nothing, metrics, or metrics + full trace."""

    metrics: bool = False
    full_trace: bool = False

    @property
    def enabled(self) -> bool:
        """True if any instrumentation is recording."""
        return self.metrics or self.full_trace

    # -- presets -----------------------------------------------------------
    @classmethod
    def off(cls) -> "ObsConfig":
        """No recording; instrumentation costs a no-op call at most."""
        return cls()

    @classmethod
    def metrics_only(cls) -> "ObsConfig":
        """Counters/gauges/histograms, but no per-event trace records."""
        return cls(metrics=True)

    @classmethod
    def full(cls) -> "ObsConfig":
        """Metrics plus the full span/event timeline."""
        return cls(metrics=True, full_trace=True)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "ObsConfig":
        """Resolve the level from ``REPRO_OBS`` (off | metrics | full)."""
        environ = os.environ if environ is None else environ
        level = environ.get(OBS_ENV_VAR, "").strip().lower()
        if level not in _LEVELS:
            raise ValueError(
                f"{OBS_ENV_VAR}={level!r} not one of {sorted(k for k in _LEVELS if k)}"
            )
        metrics, full_trace = _LEVELS[level]
        return cls(metrics=metrics, full_trace=full_trace)
