"""Plain-text reporting helpers for the benchmark harness.

Every bench prints the same rows/series the paper's tables and figures
report; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "format_table",
    "format_cdf",
    "format_series",
    "percentiles",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def percentiles(
    values: np.ndarray | Sequence[float], points: Sequence[float] = (50, 90, 99)
) -> dict[str, float]:
    """Named percentiles of a sample."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return {f"p{p:g}": float("nan") for p in points}
    return {f"p{p:g}": float(np.percentile(array, p)) for p in points}


def format_cdf(values: np.ndarray | Sequence[float], label: str, bins: int = 10) -> str:
    """Summarize a distribution as CDF checkpoints (for figure CDFs)."""
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        return f"{label}: (empty)"
    quantiles = np.linspace(0.0, 1.0, bins + 1)[1:]
    marks = ", ".join(
        f"P{int(q * 100)}={np.quantile(array, q):.3f}" for q in quantiles
    )
    return f"{label}: n={array.size}, {marks}"


def format_series(
    xs: Sequence[object], ys: Sequence[float], x_label: str, y_label: str
) -> str:
    """Render an (x, y) series as the rows behind a line plot."""
    rows = [(x, y) for x, y in zip(xs, ys)]
    return format_table([x_label, y_label], rows)
