"""The wake/sleep instance driver shared by every non-disaggregated pool.

:class:`BatcherInstanceBase` is the instance-side counterpart of
:class:`~repro.core.serving.BaselineServer`: one wake/sleep driver loop
for ServerlessLLM's, MuxServe's and the unified foils' instances, plus
the :class:`~repro.engine.batching.ContinuousBatcher` request-lifecycle
accounting the two baselines share — prefill timestamping, decode-chunk
token recording with vLLM-style preemption on KV exhaustion, and
retirement of finished requests.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from ..engine.batching import ContinuousBatcher
from ..engine.request import Phase, Request
from ..sim import ContTask, Environment, Event

__all__ = ["BatcherInstanceBase"]


class BatcherInstanceBase:
    """One pool member driven by a wake/sleep simulation process.

    Subclasses define the :attr:`active` property (is there work?) and a
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

    # -- subclass interface --------------------------------------------------
    @property
    def active(self) -> bool:
        """True while the instance has queued or running work."""
        raise NotImplementedError

    def _step(self) -> Generator:
        """One scheduling iteration (only called while :attr:`active`)."""
        raise NotImplementedError

    # -- driver loop ---------------------------------------------------------
    def _start(self) -> None:
        """Launch the driver task (call at the end of subclass ctors)."""
        self.process = _DriverTask(self.env, self)

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
        times = [chunk_start + (i + 1) * step for i in range(steps)]
        for request in running:
            context_before = request.context_tokens
            request.record_tokens(times)
            request.decode_exec_time += steps * step
            try:
                batcher.block_manager.append_tokens(
                    request.request_id, context_before, steps
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


class _DriverTask(ContTask):
    """The wake/sleep driver loop as a continuation state machine.

    Each ``_step()`` scheduling iteration (a subclass generator) runs
    through the :class:`~repro.sim.ContTask` bridge, so its events fire
    exactly as the old ``yield from`` did; only the outer ``while True``
    generator frame is gone.
    """

    __slots__ = ("_inst",)

    def __init__(self, env: Environment, inst: BatcherInstanceBase) -> None:
        self._inst = inst
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        return self._main()

    def _main(self) -> Event:
        inst = self._inst
        if not inst.active:
            inst._wake = self.env.event()
            self._send = self._woken
            return inst._wake
        return self._run_gen(inst._step(), self._step_done)

    def _woken(self, value: object) -> Event:
        self._inst._wake = None
        return self._main()

    def _step_done(self, value: object) -> Event:
        return self._main()
