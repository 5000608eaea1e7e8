"""Shared per-request outcome rows for the equivalence and determinism tests.

Two runs agree when every request's row agrees: id, final phase,
prefill start, finish time and the bit pattern of every token time.
"""

from repro.core.stats import ShardStats


def request_rows(requests):
    """One row per request, in request-id order."""
    return [
        (
            r.request_id,
            r.phase.name,
            r.prefill_start,
            r.finish_time,
            [t.hex() for t in r.token_times],
        )
        for r in sorted(requests, key=lambda r: r.request_id)
    ]


def folded(requests):
    """A fresh :class:`ShardStats` with ``requests`` folded in, in order."""
    stats = ShardStats()
    for request in requests:
        stats.fold(request)
    return stats
