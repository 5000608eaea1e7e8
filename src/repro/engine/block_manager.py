"""vLLM-style paged KV block manager (single-model engines).

The baselines (ServerlessLLM, MuxServe, dedicated instances) run
conventional engines whose KV cache is a per-model paged pool, sized at
engine initialization from the VRAM left after weights.  This is the
PagedAttention design: fixed-size blocks, per-request block tables,
admission control by free-block count.

Aegaeon itself does *not* use this — its unified KV cache is the slab
allocator in :mod:`repro.memory.slab` — which is precisely the §5.2
distinction this reproduction preserves.
"""

from __future__ import annotations

from ..models.catalog import ModelSpec
from ..models.kv import DEFAULT_BLOCK_TOKENS, kv_block_bytes

__all__ = ["BlockManager"]


class BlockManager:
    """Paged KV pool for one model on one engine."""

    def __init__(
        self,
        pool_bytes: int,
        model: ModelSpec,
        tp: int = 1,
        block_tokens: int = DEFAULT_BLOCK_TOKENS,
    ):
        self.block_tokens = block_tokens
        self.block_bytes = kv_block_bytes(model, tp, block_tokens)
        self.total_blocks = pool_bytes // self.block_bytes
        if self.total_blocks <= 0:
            raise MemoryError(
                f"KV pool of {pool_bytes} bytes holds no blocks of "
                f"{self.block_bytes} bytes ({model.name})"
            )
        self._tables: dict[int, int] = {}  # request_id -> blocks held

    # -- admission ----------------------------------------------------------
    def blocks_needed(self, tokens: int) -> int:
        """Blocks required to hold ``tokens`` tokens."""
        return max(1, -(-tokens // self.block_tokens))

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - sum(self._tables.values())

    def can_admit(self, tokens: int) -> bool:
        """Would a request with ``tokens`` context fit right now?"""
        return self.blocks_needed(tokens) <= self.free_blocks

    # -- allocation -----------------------------------------------------------
    def allocate(self, request_id: int, tokens: int) -> None:
        """Give a new request its initial block table."""
        if request_id in self._tables:
            raise ValueError(f"request {request_id} already has a block table")
        needed = self.blocks_needed(tokens)
        if needed > self.free_blocks:
            raise MemoryError(
                f"KV pool exhausted: need {needed}, free {self.free_blocks}"
            )
        self._tables[request_id] = needed

    def append_tokens(self, request_id: int, old_tokens: int, new_tokens: int) -> None:
        """Grow a request's table as decoding extends the sequence."""
        held = self._tables.get(request_id)
        if held is None:
            raise KeyError(f"request {request_id} has no block table")
        needed = self.blocks_needed(old_tokens + new_tokens)
        growth = needed - held
        if growth > 0:
            if growth > self.free_blocks:
                raise MemoryError("KV pool exhausted during decode")
            self._tables[request_id] = needed

    def release(self, request_id: int) -> None:
        """Free a finished (or preempted) request's blocks."""
        if request_id not in self._tables:
            raise KeyError(f"request {request_id} has no block table")
        del self._tables[request_id]

    def holds(self, request_id: int) -> bool:
        """True if the request currently owns a block table."""
        return request_id in self._tables
