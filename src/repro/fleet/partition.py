"""Consistent-hash catalog partitioning across fleet shards.

The fleet splits the model catalog — not the request stream — across
shards: every request for a model lands on the shard that owns it, so a
shard's model cache, placement, and autoscaling state stay coherent
without cross-shard coordination on the data path.

:class:`CatalogPartitioner` hashes models onto a ring of virtual nodes
(deterministic ``blake2b``, never Python's per-process-salted ``hash``),
so the mapping is stable across processes and runs.  Virtual nodes keep
the per-shard catalog share near-uniform; :meth:`pin` and
:meth:`rebalance` are the cross-shard overflow hooks — an operator (or a
controller loop) can move hot models off an overloaded shard without
disturbing the rest of the ring.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Mapping, Optional

__all__ = ["CatalogPartitioner"]


def _hash64(key: str) -> int:
    """Deterministic 64-bit hash (stable across processes and runs)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class CatalogPartitioner:
    """Maps model names to shard indices via a consistent-hash ring."""

    def __init__(
        self,
        shard_count: int,
        *,
        virtual_nodes: int = 64,
        salt: str = "aegaeon-fleet",
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.shard_count = shard_count
        self.virtual_nodes = virtual_nodes
        self.salt = salt
        ring = sorted(
            (_hash64(f"{salt}/{shard}/{vnode}"), shard)
            for shard in range(shard_count)
            for vnode in range(virtual_nodes)
        )
        self._ring_keys = [key for key, _ in ring]
        self._ring_shards = [shard for _, shard in ring]
        #: Explicit overrides (model -> shard), set by pin()/rebalance().
        self.pins: dict[str, int] = {}

    # -- lookup --------------------------------------------------------------
    def shard_of(self, model_name: str) -> int:
        """The shard owning ``model_name`` (pins win over the ring)."""
        pinned = self.pins.get(model_name)
        if pinned is not None:
            return pinned
        point = _hash64(f"{self.salt}:{model_name}")
        index = bisect_right(self._ring_keys, point) % len(self._ring_keys)
        return self._ring_shards[index]

    def assign(self, models: Iterable) -> dict[int, list]:
        """Partition a model catalog: shard index -> its model specs.

        Every shard appears in the result, empty or not, so callers can
        zip it straight against the shard list.
        """
        buckets: dict[int, list] = {shard: [] for shard in range(self.shard_count)}
        for spec in models:
            buckets[self.shard_of(spec.name)].append(spec)
        return buckets

    # -- overflow / rebalance hooks ------------------------------------------
    def pin(self, model_name: str, shard: int) -> None:
        """Force a model onto a shard, overriding the ring."""
        if not 0 <= shard < self.shard_count:
            raise ValueError(
                f"shard {shard} out of range [0, {self.shard_count})"
            )
        self.pins[model_name] = shard

    def rebalance(
        self,
        model_loads: Mapping[str, float],
        *,
        tolerance: float = 0.10,
        max_moves: Optional[int] = None,
    ) -> list[tuple[str, int, int]]:
        """Pin hot models away from overloaded shards.

        ``model_loads`` maps model name to its offered load (e.g. req/s).
        Shards whose total exceeds the fleet mean by more than
        ``tolerance`` shed their hottest models — one at a time, to the
        currently least-loaded shard — until they fit or run out of
        models to move.  Returns the moves applied as
        ``(model, from_shard, to_shard)``; deterministic given the same
        inputs (ties break on model name).
        """
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        loads = [0.0] * self.shard_count
        residents: dict[int, list[tuple[float, str]]] = {
            shard: [] for shard in range(self.shard_count)
        }
        for name in sorted(model_loads):
            shard = self.shard_of(name)
            load = float(model_loads[name])
            loads[shard] += load
            residents[shard].append((load, name))
        mean = sum(loads) / self.shard_count
        ceiling = mean * (1.0 + tolerance)
        moves: list[tuple[str, int, int]] = []
        for shard in sorted(
            range(self.shard_count), key=lambda s: loads[s], reverse=True
        ):
            # Hottest first; name breaks ties so runs are reproducible.
            queue = sorted(residents[shard], key=lambda item: (-item[0], item[1]))
            for load, name in queue:
                if loads[shard] <= ceiling:
                    break
                if max_moves is not None and len(moves) >= max_moves:
                    return moves
                target = min(
                    range(self.shard_count), key=lambda s: (loads[s], s)
                )
                if target == shard or loads[target] + load > loads[shard] - load:
                    continue  # a move that doesn't help; try a cooler model
                self.pins[name] = target
                loads[shard] -= load
                loads[target] += load
                moves.append((name, shard, target))
        return moves
