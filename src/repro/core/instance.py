"""Prefill and decoding instances (§4.1 disaggregation, Figure 6(c)).

Aegaeon splits its GPU pool into a prefill partition and a decoding
partition.  Each instance is one engine (a TP group of GPUs) driven by a
continuation task (:class:`~repro.sim.ContTask`) on the kernel:

* :class:`PrefillInstance` executes grouped prefill jobs front-to-back
  (Algorithm 1's execution side), scaling the engine between groups and
  offloading finished prompts' KV to the unified CPU cache.
* :class:`DecodeInstance` rotates its work list in weighted round-robin
  turns (Algorithm 2's execution side), swapping KV in/out around each
  turn and prefetching the next model during the current turn.

The *decisions* both loops make — when to preempt the resident model,
how to order a round, how big each turn's quota is — are delegated to a
bundle's :class:`~repro.policy.ScalingPolicy` and
:class:`~repro.policy.DecodeTurnPolicy`; the defaults reproduce the
pre-policy-layer behaviour exactly.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..engine.batching import MAX_BATCH_SIZE
from ..engine.engine import AegaeonEngine
from ..engine.request import Phase, Request, commit_chunk
from ..memory.slab import KvTooLargeError, SlabAllocator
from ..models.catalog import ModelSpec
from ..models.kv import kv_shape
from ..obs import NULL_OBS, Observability
from ..policy.base import DecodeTurnPolicy, ScalingPolicy, policy_event
from ..policy.decode_turn import WeightedRoundPolicy
from ..policy.scaling import TokenLevelScaling
from ..sim import ContTask, Environment, Event, Interrupt
from ..transfer.kv_transfer import RequestKv
from ..transfer.loader import CheckpointFetchError
from .decode_sched import DecodeBatch
from .prefill_sched import PrefillGroup
from .slo import SloSpec

__all__ = ["PrefillInstance", "DecodeInstance"]

# Decode chunking: token timestamps within a chunk are computed
# arithmetically; the chunk size bounds how stale the batch composition
# can get (finished/grown requests are reconciled at chunk boundaries).
DECODE_CHUNK_STEPS = 16


class PrefillInstance:
    """One prefill engine plus its grouped job queue."""

    def __init__(
        self,
        env: Environment,
        engine: AegaeonEngine,
        on_prefilled: Callable[[Request], None],
        name: str = "prefill",
        on_failed: Optional[Callable[[Request], None]] = None,
        obs: Observability = NULL_OBS,
        scaling: Optional[ScalingPolicy] = None,
    ):
        self.env = env
        self.engine = engine
        self.on_prefilled = on_prefilled
        self.on_failed = on_failed
        self.fetch_aborts = 0
        # Times the task parked for KV space (a full GPU or CPU cache).
        self.kv_waits = 0
        self.name = name
        self.groups: list[PrefillGroup] = []
        self.dead = False
        self.scaling: ScalingPolicy = scaling if scaling is not None else TokenLevelScaling()
        self._inflight: Optional[Request] = None
        self._wake: Optional[Event] = None
        self._tracer = obs.tracer
        if obs.enabled:
            obs.scoped(name).gauge("queued_requests").set_fn(
                lambda: sum(len(group.requests) for group in self.groups)
            )
        self.process = _PrefillTask(env, self)

    # -- scheduler interface (PrefillInstanceLike) ---------------------------
    def current_model(self) -> Optional[ModelSpec]:
        """The model currently resident on this instance's engine."""
        return self.engine.current_model

    def estimate_group_time(
        self, group: PrefillGroup, previous: Optional[ModelSpec]
    ) -> float:
        """Execution + auto-scaling estimate for one queued group."""
        latency = self.engine.latency_model(group.spec)
        execution = sum(
            latency.prefill_time_single(request.input_tokens)
            for request in group.requests
        )
        switch = 0.0
        if previous is None or previous.name != group.spec.name:
            switch = self.engine.estimate_switch_time(group.spec)
        return execution + switch

    def kick(self) -> None:
        """Wake the instance loop after new work arrives."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def fail(self) -> list[Request]:
        """Take this instance offline (its GPUs died); returns orphans.

        The in-flight job and every queued request are harvested for the
        server to reschedule; the driver process is interrupted at its
        current wait.  Stream ops already issued complete harmlessly —
        the failure granularity is the host-visible job, not the DMA.
        """
        if self.dead:
            return []
        self.dead = True
        orphans: list[Request] = []
        if self._inflight is not None:
            orphans.append(self._inflight)
            self._inflight = None
        for group in self.groups:
            orphans.extend(group.requests)
            group.requests.clear()
        self.groups.clear()
        for gpu in self.engine.gpus:
            gpu.healthy = False
        if self.process.is_alive and self.process.target is not None:
            self.process.interrupt("instance failure")
        return orphans

    def _prefetch_next(self, current: ModelSpec) -> None:
        for group in self.groups:
            if group.spec.name != current.name and not group.exhausted:
                self.engine.prefetch(group.spec)
                return


class _PrefillTask(ContTask):
    """Algorithm 1's execution loop as a continuation state machine.

    A job whose KV allocation or swap-out finds its cache full parks
    on that cache's next ``free`` (never on a timer) and retries at that
    instant; a KV larger than the whole empty region fails its request,
    like an unreachable checkpoint.  The single-timeout prefill is
    inlined when the tracer is off, so the hottest wake pays one state
    call instead of a ``generator.send`` through two frames.
    """

    __slots__ = ("_inst", "_spec", "_request", "_span", "_duration")

    def __init__(self, env: Environment, inst: "PrefillInstance") -> None:
        self._inst = inst
        self._spec = None
        self._request = None
        self._span = None
        self._duration = 0.0
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        return self._main()

    def _main(self) -> Event:
        inst = self._inst
        while True:
            if not inst.groups:
                inst._wake = self.env.event()
                self._send = self._woken
                return inst._wake
            group = inst.groups[0]
            if group.exhausted:
                inst.groups.pop(0)
                continue
            request = group.requests.popleft()
            inst._inflight = request
            self._spec = group.spec
            self._request = request
            return self._begin_job()

    def _woken(self, value: object) -> Event:
        self._inst._wake = None
        return self._main()

    def _begin_job(self) -> Event:
        inst = self._inst
        request = self._request
        spec = self._spec
        tracer = inst._tracer
        if tracer.enabled:
            self._span = tracer.span(
                "prefill_job", cat="lifecycle", track=inst.name,
                request_id=request.request_id, model=request.model,
            )
            self._span.__enter__()
        engine = inst.engine
        if inst.scaling.should_switch(engine, spec):
            current = engine.current_model
            policy_event(
                tracer, "scale", instance=inst.name, phase="prefill",
                model=spec.name, evicted=None if current is None else current.name,
            )
            # Look ahead: start prefetching the following group's model
            # while this scale-up runs its non-load stages.
            return self._run_gen(engine.scale_to(spec), self._after_scale)
        return self._after_scale(None)

    def _after_scale(self, value: object) -> Event:
        inst = self._inst
        request = self._request
        inst._prefetch_next(self._spec)
        # KV for the prompt; under cache pressure the task waits for
        # swap-outs to release blocks (they do so asynchronously).
        request.kv = RequestKv(
            request_id=request.request_id,
            shape=kv_shape(request.spec, inst.engine.config.tp),
            tokens=request.input_tokens,
        )
        return self._alloc_kv(None)

    def _alloc_kv(self, value: object) -> Event:
        manager = self._inst.engine.kv
        try:
            manager.alloc_gpu(self._request.kv)
        except KvTooLargeError:
            return self._fail_job()
        except MemoryError:
            return self._wait_for_free(manager.gpu_cache, self._alloc_kv)
        return self._start_prefill()

    def _wait_for_free(self, cache: SlabAllocator, state: Callable) -> Event:
        """Park until ``cache`` frees blocks, then re-enter ``state``."""
        self._inst.kv_waits += 1
        event = self.env.event()
        cache.wake_on_free(event)
        self._send = state
        return event

    def _start_prefill(self) -> Event:
        inst = self._inst
        engine = inst.engine
        request = self._request
        spec = self._spec
        request.phase = Phase.PREFILLING
        request.prefill_start = self.env.now
        if engine._tracer.enabled:
            return self._run_gen(
                engine.prefill(spec, [request.input_tokens]), self._after_prefill
            )
        # Tracer off: the prefill is one timeout; run it without the
        # engine's generator frame (same event, same busy accounting).
        engine._require_active(spec)
        duration = (
            engine.latency_model(spec).prefill_time([request.input_tokens])
            * engine.perf_factor
        )
        self._duration = duration
        self._send = self._prefill_done
        return self.env.timeout(duration)

    def _prefill_done(self, value: object) -> Event:
        self._inst.engine.busy_time += self._duration
        return self._after_prefill(None)

    def _after_prefill(self, value: object) -> Event:
        request = self._request
        now = self.env.now
        request.prefill_end = now
        request.record_tokens([now])  # the first output token
        return self._swap_out(None)

    def _swap_out(self, value: object) -> Event:
        # Offload the prompt KV to the unified CPU cache.  Under
        # fine-grained sync this overlaps with the next prefill; the
        # unoptimized path must drain before proceeding.
        inst = self._inst
        manager = inst.engine.kv
        try:
            manager.swap_out(self._request.kv)
        except KvTooLargeError:
            return self._fail_job()
        except MemoryError:
            return self._wait_for_free(manager.cpu_cache, self._swap_out)
        if not inst.engine.config.fine_grained_sync:
            return self._run_gen(manager.drain(), self._job_done)
        return self._job_done(None)

    def _job_done(self, value: object) -> Event:
        inst = self._inst
        request = self._request
        request.phase = Phase.DECODING
        request.decode_enqueue = self.env.now
        inst.on_prefilled(request)
        self._close_span()
        self._request = None
        self._spec = None
        inst._inflight = None
        return self._main()

    def _fail_job(self) -> Event:
        """Fail the in-flight request instead of wedging the queue behind it."""
        inst = self._inst
        request = self._request
        self._close_span()
        if request.kv is not None:
            inst.engine.kv.abort_request(request.kv)
            request.kv = None
        request.reset_progress()
        if inst.on_failed is not None:
            inst.on_failed(request)
        self._request = None
        self._spec = None
        inst._inflight = None
        return self._main()

    def _close_span(self) -> None:
        span = self._span
        if span is not None:
            self._span = None
            span.__exit__(None, None, None)

    def _on_throw(self, exc: BaseException) -> Event:
        # Mirrors the generator loop's unwinding: the job span closes as
        # the exception propagates, then the loop either exits quietly
        # (instance failure) or fails the wedged request and moves on.
        self._close_span()
        if isinstance(exc, Interrupt):
            raise StopIteration(None)
        if isinstance(exc, CheckpointFetchError):
            # Retry budget exhausted: the registry is persistently
            # unreachable for this model.
            self._inst.fetch_aborts += 1
            return self._fail_job()
        raise exc


class DecodeInstance:
    """One decoding engine plus its rotating work list."""

    def __init__(
        self,
        env: Environment,
        engine: AegaeonEngine,
        slo: SloSpec,
        on_finished: Callable[[Request], None],
        name: str = "decode",
        on_failed: Optional[Callable[[Request], None]] = None,
        obs: Observability = NULL_OBS,
        turn_policy: Optional[DecodeTurnPolicy] = None,
        scaling: Optional[ScalingPolicy] = None,
    ):
        self.env = env
        self.engine = engine
        self.slo = slo
        self.on_finished = on_finished
        self.on_failed = on_failed
        self.name = name
        self.turn_policy: DecodeTurnPolicy = (
            turn_policy if turn_policy is not None else WeightedRoundPolicy()
        )
        self.scaling: ScalingPolicy = scaling if scaling is not None else TokenLevelScaling()
        self.work_list: list[DecodeBatch] = []
        self.dead = False
        self.fetch_aborts = 0
        # Swap-ins with no GPU room, swap-outs with no CPU room.
        self.left_on_cpu = 0
        self.kept_resident = 0
        self._wake: Optional[Event] = None
        self.rounds = 0
        self.turns = 0
        self._tracer = obs.tracer
        scope = obs.scoped(name)
        self._round_counter = scope.counter("rounds")
        self._turn_counter = scope.counter("turns")
        if obs.enabled:
            scope.gauge("work_list_batches").set_fn(lambda: len(self.work_list))
            scope.gauge("queued_requests").set_fn(
                lambda: sum(batch.size for batch in self.work_list)
            )
        self.process = _DecodeTask(env, self)

    # -- scheduler interface (DecodeInstanceLike) ---------------------------
    def batch_capacity(self, spec: ModelSpec) -> int:
        """Max batch size derived from the GPU KV capacity (Alg. 2, line 2)."""
        shape = kv_shape(spec, self.engine.config.tp)
        capacity_tokens = (
            self.engine.gpu_kv_cache.region_bytes // shape.bytes_per_token
        )
        # Leave headroom for context growth and a second batch in
        # flight; ShareGPT-like requests average ~1k context tokens.
        typical_context = 1024
        return max(1, min(MAX_BATCH_SIZE, capacity_tokens // (2 * typical_context)))

    def kick(self) -> None:
        """Wake the instance loop after new work arrives."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def fail(self) -> list[Request]:
        """Take this instance offline (its GPUs died); returns orphans.

        Finished requests still sitting in a batch complete normally;
        every other request is harvested for the server to reschedule.
        """
        if self.dead:
            return []
        self.dead = True
        orphans: list[Request] = []
        for batch in self.work_list:
            for request in list(batch.requests):
                if request.finished:
                    if request.kv is not None and request.kv.location == "gpu":
                        self.engine.kv.free_gpu(request.kv)
                    request.complete(self.env.now)
                    self.on_finished(request)
                else:
                    orphans.append(request)
            batch.requests.clear()
        self.work_list.clear()
        for gpu in self.engine.gpus:
            gpu.healthy = False
        if self.process.is_alive and self.process.target is not None:
            self.process.interrupt("instance failure")
        return orphans

    def _issue_swap_in_async(self, batches: list[DecodeBatch], index: int) -> None:
        """Start the next non-empty batch's KV swap-in without waiting."""
        for other in batches[index + 1 :]:
            if other.exhausted:
                continue
            for request in other.requests:
                if request.kv is not None and request.kv.location == "cpu":
                    try:
                        self.engine.kv.swap_in(request.kv)
                    except MemoryError:
                        return  # cache pressure: its own turn will retry
            return

    def _distinct_models(self) -> int:
        return len({batch.spec.name for batch in self.work_list if not batch.exhausted})

    def _round_switch_cost(self, batches: list[DecodeBatch]) -> float:
        """``c``: the round's scaling overhead, per the scaling policy."""
        return self.scaling.round_switch_cost(self.engine, batches)

    def _prefetch_after(self, batch: DecodeBatch) -> None:
        """Prefetch the next distinct model while this turn decodes."""
        names = [b.spec.name for b in self.work_list]
        try:
            index = names.index(batch.spec.name)
        except ValueError:
            return
        for other in self.work_list[index + 1 :] + self.work_list[:index]:
            if other.spec.name != batch.spec.name and not other.exhausted:
                self.engine.prefetch(other.spec)
                return

    def _abort_batch(self, batch: DecodeBatch) -> None:
        """Fail every request in ``batch`` (checkpoint unreachable)."""
        for request in list(batch.requests):
            self._fail(request)
        batch.requests.clear()

    def _fail(self, request: Request) -> None:
        """Drop ``request``'s KV and report it failed (caller unbatches it)."""
        if request.kv is not None:
            self.engine.kv.abort_request(request.kv)
            request.kv = None
        if self.on_failed is not None:
            self.on_failed(request)

    def _retire_finished(self, batch: DecodeBatch) -> None:
        finished = None
        for r in batch.requests:
            if r.generated_tokens >= r.output_tokens:
                if finished is None:
                    finished = []
                finished.append(r)
        if finished is None:
            return
        for request in finished:
            batch.requests.remove(request)
            if request.kv is not None and request.kv.location == "gpu":
                self.engine.kv.free_gpu(request.kv)
            request.complete(self.env.now)
            self.on_finished(request)

    def _prune(self) -> None:
        if any(b.exhausted for b in self.work_list):
            self.work_list[:] = [b for b in self.work_list if not b.exhausted]


class _DecodeTask(ContTask):
    """Algorithm 2's execution loop as a continuation state machine.

    The round/turn/chunk nesting of the old generator loop becomes flat
    state functions; the per-chunk decode timeout — the single hottest
    wake in the whole simulation — resumes directly into
    :meth:`_chunk_done` instead of unwinding four generator frames.

    The task never waits for KV space: its own other batches hold it.
    A swap-in with no GPU room leaves the request on the CPU for the
    turn, which decodes what is resident, and a turn with nothing
    resident or in transit ends at once.  A swap-out the CPU cache
    cannot take leaves the KV on the GPU.  A request that can neither
    grow on the GPU nor move to the CPU, or whose KV exceeds the whole
    GPU region, fails.  A round that ends with the clock unmoved parks
    until the GPU cache frees blocks or new work arrives.
    """

    __slots__ = (
        "_inst", "_batches", "_quotas", "_turn_index", "_cur_index",
        "_batch", "_quota", "_turn_start", "_round_start", "_round_span",
        "_turn_span", "_ready", "_chunk_steps", "_chunk_step",
        "_chunk_start", "_duration", "_stall_start", "_left_on_cpu",
    )

    def __init__(self, env: Environment, inst: "DecodeInstance") -> None:
        self._inst = inst
        self._batches = None
        self._quotas = None
        self._turn_index = 0
        self._cur_index = 0
        self._batch = None
        self._quota = 0.0
        self._turn_start = 0.0
        self._round_start = 0.0
        self._round_span = None
        self._turn_span = None
        self._ready = None
        self._chunk_steps = 0
        self._chunk_step = 0.0
        self._chunk_start = 0.0
        self._duration = 0.0
        self._stall_start = 0.0
        # Request ids whose swap-in found no room this turn.
        self._left_on_cpu: Optional[set[int]] = None
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        return self._main()

    def _main(self) -> Event:
        inst = self._inst
        inst._prune()
        if not inst.work_list:
            inst._wake = self.env.event()
            self._send = self._woken
            return inst._wake
        return self._round_begin()

    def _woken(self, value: object) -> Event:
        self._inst._wake = None
        return self._main()

    # -- one full rotation of the work list (Algorithm 2, lines 4-11) ------
    def _round_begin(self) -> Event:
        inst = self._inst
        inst.rounds += 1
        inst._round_counter.inc()
        reordered = inst.turn_policy.order(inst.work_list)
        if reordered is not inst.work_list:
            inst.work_list[:] = reordered
        batches = list(inst.work_list)
        engine = inst.engine
        step_times = [
            engine.decode_step_time(
                batch.spec, batch.size or 1, batch.context_tokens or 1
            )
            for batch in batches
        ]
        switch_cost = inst._round_switch_cost(batches)
        quotas = inst.turn_policy.quotas(batches, step_times, switch_cost, inst.slo)
        tracer = inst._tracer
        if tracer.enabled:
            self._round_span = tracer.span(
                "decode_round", cat="sched", track=inst.name, batches=len(batches)
            )
            self._round_span.__enter__()
        self._batches = batches
        self._quotas = quotas
        self._turn_index = 0
        self._round_start = self.env.now
        return self._next_turn()

    def _next_turn(self) -> Event:
        inst = self._inst
        batches = self._batches
        quotas = self._quotas
        index = self._turn_index
        count = min(len(batches), len(quotas))  # zip() semantics
        while index < count:
            batch = batches[index]
            quota = quotas[index]
            self._turn_index = index + 1
            if batch.exhausted:
                index += 1
                continue
            inst.turns += 1
            inst._turn_counter.inc()
            tracer = inst._tracer
            if tracer.enabled:
                self._turn_span = tracer.span(
                    "decode_turn", cat="sched", track=inst.name,
                    model=batch.spec.name, quota=quota, batch=batch.size,
                )
                self._turn_span.__enter__()
            self._cur_index = index
            self._batch = batch
            self._quota = quota
            return self._turn_begin()
        self._close_round_span()
        self._batches = None
        self._quotas = None
        inst._prune()
        if self.env.now == self._round_start and inst.work_list:
            # Every turn ended at once: nothing can change until the GPU
            # cache frees blocks (an in-flight swap-out source whose
            # request left the work list) or new work arrives.
            wake = inst._wake = self.env.event()
            inst.engine.kv.gpu_cache.wake_on_free(wake)
            self._send = self._woken
            return wake
        return self._main()

    # -- one weighted turn: scale, swap in, decode, swap out ---------------
    def _turn_begin(self) -> Event:
        inst = self._inst
        engine = inst.engine
        batch = self._batch
        if inst.scaling.should_switch(engine, batch.spec):
            current = engine.current_model
            policy_event(
                inst._tracer, "scale", instance=inst.name, phase="decode",
                model=batch.spec.name,
                evicted=None if current is None else current.name,
            )
            return self._run_gen(
                engine.scale_to(batch.spec), self._after_scale, self._scale_failed
            )
        return self._after_scale(None)

    def _scale_failed(self, exc: BaseException) -> Event:
        if isinstance(exc, CheckpointFetchError):
            # Persistently unreachable checkpoint: fail this model's
            # batch instead of wedging the rotation behind it.
            inst = self._inst
            inst.fetch_aborts += 1
            inst._abort_batch(self._batch)
            return self._end_turn()
        return self._on_throw(exc)

    def _after_scale(self, value: object) -> Event:
        inst = self._inst
        inst._prefetch_after(self._batch)
        return self._swap_in(self._after_swap_in)

    def _after_swap_in(self, value: object) -> Event:
        # Figure 10's overlap: while this turn decodes, the *next*
        # batch's KV streams in on the kv_in stream, guarded by
        # per-request events — by its turn, rule ❶ is already met.
        self._inst._issue_swap_in_async(self._batches, self._cur_index)
        self._turn_start = self.env.now
        return self._chunk_loop()

    # -- the decode chunk loop (old _decode_for) ---------------------------
    def _chunk_loop(self) -> Event:
        env = self.env
        inst = self._inst
        engine = inst.engine
        batch = self._batch
        quota = self._quota
        while env.now - self._turn_start < quota and not batch.exhausted:
            # One pass: requests that joined the batch mid-round still
            # sit in the CPU cache and must be pulled in before the turn
            # decodes (gathering is side-effect free, so bailing out
            # mid-scan is equivalent to the old separate cpu-scan); the
            # same pass gathers the ready set (rule ❶, inlined
            # ``ready_on_gpu``) plus the context total and the minimum
            # remaining tokens it implies.  This loop runs once per
            # decode chunk across every running batch.
            ready = []
            ready_append = ready.append
            context_total = 0
            min_remaining = 0
            for r in batch.requests:
                kv = r.kv
                if kv is None:
                    continue
                location = kv.location
                if location == "cpu":
                    left = self._left_on_cpu
                    if left is None or r.request_id not in left:
                        return self._swap_in(self._chunk_resume)
                    continue
                if location == "gpu":
                    transfer = kv.last_transfer
                    if (
                        transfer is None
                        or transfer.completed_at is not None
                        or not transfer.recorded
                    ):
                        ready_append(r)
                        generated = r.generated_tokens
                        context_total += r.input_tokens + generated
                        remaining = r.output_tokens - generated
                        if remaining < min_remaining or len(ready) == 1:
                            min_remaining = remaining
            if not ready:
                return self._stall_begin()
            step = engine.decode_step_time(batch.spec, len(ready), context_total)
            remaining_time = quota - (env.now - self._turn_start)
            steps = max(1, min(
                DECODE_CHUNK_STEPS,
                int(remaining_time // step) if step > 0 else DECODE_CHUNK_STEPS,
                min_remaining,
            ))
            self._ready = ready
            self._chunk_step = step
            self._chunk_steps = steps
            self._chunk_start = env.now
            duration = steps * step
            if engine._tracer.enabled:
                return self._run_gen(
                    engine.decode_for(batch.spec, duration), self._chunk_done
                )
            # Tracer off: the chunk is one timeout; skip the engine's
            # generator frame (same event, same busy accounting).
            engine._require_active(batch.spec)
            self._duration = duration
            self._send = self._chunk_done_fast
            return env.timeout(duration)
        return self._after_decode()

    def _chunk_resume(self, value: object) -> Event:
        return self._chunk_loop()

    def _chunk_done_fast(self, value: object) -> Event:
        self._inst.engine.busy_time += self._duration
        return self._chunk_done(None)

    def _chunk_done(self, value: object) -> Event:
        inst = self._inst
        engine = inst.engine
        steps = self._chunk_steps
        ready = self._ready
        commit_chunk(ready, self._chunk_start, self._chunk_step, steps)
        gpu_cache = engine.gpu_kv_cache
        # Grow each request's KV (RequestKv.grow only when a block
        # boundary is crossed): steps never exceed any ready request's
        # remaining tokens.
        for request in ready:
            kv = request.kv
            tokens = kv.tokens + steps
            if tokens <= kv.capacity_tokens:
                kv.tokens = tokens
                continue
            try:
                kv.grow(steps, gpu_cache)
            except MemoryError:
                if request.generated_tokens >= request.output_tokens:
                    continue  # retires below with the blocks it holds
                # Cache pressure: demote this request until space frees,
                # or fail it when the CPU cache cannot take it either.
                try:
                    engine.kv.swap_out(kv)
                except MemoryError:
                    self._batch.requests.remove(request)
                    inst._fail(request)
        self._ready = None
        inst._retire_finished(self._batch)
        return self._chunk_loop()

    def _stall_begin(self) -> Event:
        """Rule ❶ stall: no request's KV is usable yet.

        With nothing in transit either, waiting cannot help this turn:
        it ends, and the batches holding the GPU decode.
        """
        pending = [
            r.kv.last_transfer.wait()
            for r in self._batch.requests
            if r.kv is not None and r.kv.last_transfer is not None
            and not r.kv.last_transfer.query()
        ]
        if not pending:
            return self._end_turn()
        self._stall_start = self.env.now
        self._send = self._stall_done
        return self.env.any_of(pending)

    def _stall_done(self, value: object) -> Event:
        inst = self._inst
        batch = self._batch
        if batch.requests:
            inst.engine.kv.stats.charge_wait(
                batch.requests[0].request_id, self.env.now - self._stall_start
            )
        return self._chunk_loop()

    def _after_decode(self) -> Event:
        inst = self._inst
        if inst._distinct_models() > 1:
            # Swap the batch out; KV the CPU cache cannot take stays.
            manager = inst.engine.kv
            for request in self._batch.requests:
                kv = request.kv
                if kv is not None and kv.location == "gpu":
                    try:
                        manager.swap_out(kv)
                    except MemoryError:
                        inst.kept_resident += 1
            if not inst.engine.config.fine_grained_sync:
                return self._run_gen(manager.drain(), self._end_turn_cb)
        return self._end_turn()

    def _end_turn_cb(self, value: object) -> Event:
        return self._end_turn()

    def _end_turn(self) -> Event:
        self._close_turn_span()
        self._batch = None
        self._left_on_cpu = None
        return self._next_turn()

    # -- swap-in over a snapshot of batch.requests -------------------------
    def _swap_in(self, cont: Callable[[object], Event]) -> Event:
        """Swap in the batch's CPU-resident KV, then run ``cont``.

        A request with no GPU room is left on the CPU for this turn; one
        whose KV exceeds the whole GPU region fails.
        """
        inst = self._inst
        batch = self._batch
        manager = inst.engine.kv
        left = self._left_on_cpu
        for request in list(batch.requests):
            kv = request.kv
            if kv is None or kv.location != "cpu" or (
                left and request.request_id in left
            ):
                continue
            try:
                manager.swap_in(kv)
            except KvTooLargeError:
                batch.requests.remove(request)
                inst._fail(request)
            except MemoryError:
                inst.left_on_cpu += 1
                if left is None:
                    left = self._left_on_cpu = set()
                left.add(request.request_id)
        if not inst.engine.config.fine_grained_sync:
            return self._run_gen(manager.drain(), cont)
        return cont(None)

    # -- unwinding ---------------------------------------------------------
    def _close_turn_span(self) -> None:
        span = self._turn_span
        if span is not None:
            self._turn_span = None
            span.__exit__(None, None, None)

    def _close_round_span(self) -> None:
        span = self._round_span
        if span is not None:
            self._round_span = None
            span.__exit__(None, None, None)

    def _on_throw(self, exc: BaseException) -> Event:
        # Mirrors the with-block unwinding of the generator loop: open
        # spans close innermost-first, then the loop exits quietly on
        # instance failure or crashes the task like the old process.
        self._close_turn_span()
        self._close_round_span()
        if isinstance(exc, Interrupt):
            raise StopIteration(None)
        raise exc
