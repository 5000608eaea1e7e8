"""The unified ``REPRO_*`` environment-variable surface.

Every knob read from the environment is declared here — one registry
consulted by :meth:`repro.core.RunSettings.from_env` — so an
unrecognized ``REPRO_*`` key can be flagged with the *nearest* valid key
(a typo'd knob silently doing nothing is worse than noise), and the
README's key table is generated rather than hand-maintained::

    PYTHONPATH=src python -m repro.envkeys   # prints the markdown table

A key belongs here only if some run reads it.  Tuning constants have no
keys: a run changes them through
:meth:`repro.policy.PolicyBundle.with_tunables`.
"""

from __future__ import annotations

import difflib
import warnings
from typing import Mapping, Optional

__all__ = [
    "ENV_KEYS",
    "known_env_keys",
    "suggest_env_key",
    "warn_unknown_env_keys",
    "format_env_table",
]

#: Every REPRO_* key something reads, with the one-line description the
#: generated README table carries.
ENV_KEYS: dict[str, str] = {
    "REPRO_BENCH_HORIZON": "Simulated seconds of trace per bench run (default 150).",
    "REPRO_BENCH_SCALE": "Multiplier on benchmark parameter grids (default 1.0).",
    "REPRO_BENCH_SEED": "Workload seed for benches and smoke runs (default 2025).",
    "REPRO_OBS": "Observability level: `off`, `metrics`, or `full`.",
    "REPRO_POLICIES": "Policy bundle name steering builds (e.g. `aegaeon-slo-admission`).",
    "REPRO_INVARIANTS": "Set to `1` to arm the runtime InvariantChecker in every build.",
}


def known_env_keys() -> dict[str, str]:
    """All recognized keys."""
    return dict(ENV_KEYS)


def suggest_env_key(key: str) -> Optional[str]:
    """The nearest recognized key to a mistyped one, if any is close."""
    matches = difflib.get_close_matches(key, sorted(known_env_keys()), n=1)
    return matches[0] if matches else None


def warn_unknown_env_keys(
    environ: Mapping[str, str], *, stacklevel: int = 3
) -> None:
    """Flag every unrecognized ``REPRO_*`` key in ``environ``.

    Each warning names the nearest valid key when one is plausible, and
    points at this module's table for the full surface.
    """
    known = known_env_keys()
    for key in environ:
        if not key.startswith("REPRO_") or key in known:
            continue
        suggestion = suggest_env_key(key)
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        warnings.warn(
            f"unrecognized environment variable {key!r}{hint} "
            f"(run `python -m repro.envkeys` for the full REPRO_* table)",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def format_env_table() -> str:
    """The README's markdown table of every ``REPRO_*`` key."""
    width = max(len(key) for key in ENV_KEYS) + 2  # the backticks
    lines = [
        f"| {'Variable'.ljust(width)} | Meaning |",
        f"| {'-' * width} | ------- |",
    ]
    for key, description in ENV_KEYS.items():
        lines.append(f"| {f'`{key}`'.ljust(width)} | {description} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_env_table())
