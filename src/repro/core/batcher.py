"""The wake/sleep instance driver shared by every non-disaggregated pool.

:class:`BatcherInstanceBase` is the one wake/sleep driver loop of
ServerlessLLM's, MuxServe's and the unified foils' instances, plus
the :class:`~repro.engine.batching.ContinuousBatcher` request-lifecycle
accounting the two baselines share — prefill timestamping, decode-chunk
token recording with vLLM-style preemption on KV exhaustion, and
retirement of finished requests.

The driver is one generator process: it parks on a wake event while
the instance is idle and runs each ``_step()`` scheduling iteration in
its own frame through ``yield from``, so a step's events fire as if
the driver had yielded them itself.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from ..engine.batching import ContinuousBatcher
from ..engine.request import Phase, Request, Stretch, commit_stretch
from ..sim import Environment, Event

__all__ = ["BatcherInstanceBase"]


class BatcherInstanceBase:
    """One pool member driven by a wake/sleep simulation process.

    Subclasses define an ``active`` property (is there work?) and a
    ``_step()`` generator (one scheduling iteration); everything else —
    parking on a wake event when idle, waking on :meth:`_kick`, and the
    :class:`~repro.engine.batching.ContinuousBatcher` request-lifecycle
    accounting — is shared.
    """

    def __init__(self, env: Environment, name: str, on_finished: Callable[[Request], None]):
        self.env = env
        self.name = name
        self.on_finished = on_finished
        self._wake: Optional[Event] = None
        self.process = None

    # -- driver loop ---------------------------------------------------------
    def _start(self) -> None:
        """Launch the driver process (call at the end of subclass ctors)."""
        self.process = self.env.process(self._drive())

    def _drive(self) -> Generator:
        """Sleep until woken while idle; otherwise run one ``_step()``."""
        env = self.env
        while True:
            if self.active:
                yield from self._step()
            else:
                self._wake = env.event()
                yield self._wake
                self._wake = None

    def _kick(self) -> None:
        """Wake the driver loop after new work arrives."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    # -- request-lifecycle accounting ----------------------------------------
    def _mark_prefilling(self, admitted: Sequence[Request]) -> None:
        """Stamp a batch of admitted requests as entering prefill."""
        now = self.env.now
        for request in admitted:
            request.phase = Phase.PREFILLING
            request.prefill_start = now

    def _mark_prefilled(
        self, batcher: ContinuousBatcher, admitted: Sequence[Request]
    ) -> None:
        """Stamp prefill completion (the first output token) and start decoding."""
        now = self.env.now
        for request in admitted:
            request.prefill_end = now
            request.record_tokens([now])
            request.decode_enqueue = now
        batcher.start_decoding(admitted)
        self._finish_done(batcher)

    def _account_decode_chunk(
        self,
        batcher: ContinuousBatcher,
        running: Sequence[Request],
        chunk_start: float,
        step: float,
        steps: int,
    ) -> None:
        """Record one decode chunk's tokens and grow each request's KV.

        A request whose KV block allocation fails is preempted
        vLLM-style: blocks released, moved to the head of the waiting
        queue for recomputation.
        """
        commit_stretch(running, Stretch((chunk_start, step, steps)))
        for request in running:
            try:
                batcher.block_manager.append_tokens(
                    request.request_id, request.context_tokens - steps, steps
                )
            except MemoryError:
                batcher.block_manager.release(request.request_id)
                batcher.running.remove(request)
                request.phase = Phase.QUEUED
                batcher.waiting.insert(0, request)
        self._finish_done(batcher)

    def _finish_done(self, batcher: ContinuousBatcher) -> None:
        """Retire and report every finished request still in ``batcher``."""
        for request in [r for r in batcher.running if r.finished]:
            batcher.retire(request)
            request.complete(self.env.now)
            self.on_finished(request)
