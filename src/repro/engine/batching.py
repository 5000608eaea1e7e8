"""Continuous batching (Orca-style), used by the baseline engines.

The baseline systems run conventional single-model engines: new requests
join the running batch at step boundaries, prefills are chunk-scheduled
ahead of decodes (vLLM's default), and admission is bounded by the KV
pool and a token budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .block_manager import BlockManager
from .request import Phase, Request

__all__ = ["MAX_BATCH_SIZE", "BatchingPolicy", "ContinuousBatcher"]

#: Largest decode batch of every serving system's instances, Aegaeon's
#: and the baselines' alike.
MAX_BATCH_SIZE = 32


@dataclass(frozen=True)
class BatchingPolicy:
    """Admission limits for one engine."""

    max_batch_size: int = 64
    max_prefill_tokens: int = 8192

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0 or self.max_prefill_tokens <= 0:
            raise ValueError("batching limits must be positive")


class ContinuousBatcher:
    """Tracks the running set of one single-model engine."""

    def __init__(self, block_manager: BlockManager, policy: BatchingPolicy = BatchingPolicy()):
        self.block_manager = block_manager
        self.policy = policy
        self.waiting: list[Request] = []
        self.running: list[Request] = []

    def enqueue(self, request: Request) -> None:
        """Add a request to the waiting queue."""
        self.waiting.append(request)

    def admit_prefills(self) -> list[Request]:
        """Admit waiting requests for the next prefill batch.

        Respects FCFS order, the KV pool, the batch-size cap, and the
        prefill token budget.  Admitted requests get their block tables.
        """
        admitted: list[Request] = []
        token_budget = self.policy.max_prefill_tokens
        while self.waiting:
            request = self.waiting[0]
            over_batch = (
                len(self.running) + len(admitted) >= self.policy.max_batch_size
            )
            over_tokens = admitted and request.input_tokens > token_budget
            if over_batch or over_tokens:
                break
            if not self.block_manager.can_admit(request.context_tokens + 1):
                break
            self.waiting.pop(0)
            self.block_manager.allocate(
                request.request_id, request.context_tokens + 1
            )
            token_budget -= request.input_tokens
            admitted.append(request)
        return admitted

    def start_decoding(self, requests: list[Request]) -> None:
        """Move prefilled requests into the running (decoding) set."""
        for request in requests:
            request.phase = Phase.DECODING
            self.running.append(request)

    def decode_batch(self) -> list[Request]:
        """The current decode batch (all running requests)."""
        return list(self.running)

    def retire(self, request: Request) -> None:
        """Release a finished request."""
        self.block_manager.release(request.request_id)
        self.running.remove(request)

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)
