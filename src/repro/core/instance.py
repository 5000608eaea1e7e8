"""Prefill and decoding instances (§4.1 disaggregation, Figure 6(c)).

Aegaeon splits its GPU pool into a prefill partition and a decoding
partition.  Each instance is one engine (a TP group of GPUs) driven by
one generator process on the kernel:

* :class:`PrefillInstance` executes grouped prefill jobs front-to-back
  (Algorithm 1's execution side), scaling the engine between groups and
  offloading finished prompts' KV to the unified CPU cache.
* :class:`DecodeInstance` rotates its work list in weighted round-robin
  turns (Algorithm 2's execution side), swapping KV in/out around each
  turn and prefetching the next model during the current turn.

Each loop is one flat frame: it yields the prefill and decode-chunk
timeouts, the rule-❶ stall and the idle waits itself, and only the
multi-wait sub-operations (``AegaeonEngine.scale_to``,
``KvTransferManager.drain``) run through ``yield from``.  A traced run
takes the same path and records the engine's ``prefill`` / ``decode``
exec spans around the same timeouts.

Whether to preempt the resident model is the bundle's
:class:`~repro.policy.ScalingPolicy` decision.  A decode round's order
and turn quotas (Algorithm 2, Eqs. 2-3) come from the
:class:`~repro.policy.decode_turn.WeightedRoundPolicy` each decode
instance builds from its bundle's tunables.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..engine.batching import MAX_BATCH_SIZE
from ..engine.engine import AegaeonEngine
from ..engine.request import Phase, Request, Stretch, commit_stretch
from ..memory.slab import KvTooLargeError, SlabAllocator
from ..models.catalog import ModelSpec
from ..models.kv import kv_shape
from ..obs import NULL_OBS, Observability
from ..policy.base import ScalingPolicy, policy_event
from ..policy.decode_turn import WeightedRoundPolicy
from ..policy.scaling import TokenLevelScaling
from ..policy.tunables import DEFAULT_TUNABLES, Tunables
from ..obs.tracer import NULL_SPAN, Tracer
from ..sim import Environment, Event, Interrupt, Run
from ..transfer.kv_transfer import RequestKv
from ..transfer.loader import CheckpointFetchError
from .decode_sched import DecodeBatch
from .prefill_sched import PrefillGroup
from .slo import SloSpec

__all__ = ["PrefillInstance", "DecodeInstance", "DecodeRun"]

# Decode chunking: token timestamps within a chunk are computed
# arithmetically; the chunk size bounds how stale the batch composition
# can get (finished/grown requests are reconciled at chunk boundaries).
DECODE_CHUNK_STEPS = 16


class DecodeRun(Run):
    """Consecutive decode chunks of one turn, retired with one timeout.

    At a chunk start the decode loop gathers its batch's ready set
    (rule ❶).  While nothing changes that set, each later chunk follows
    from the one before, so a run lays out every chunk the per-chunk
    loop would decode, with the loop's own arithmetic: each chunk's step
    is ``engine.decode_step_time`` at that chunk's context, its length
    ``max(1, min(DECODE_CHUNK_STEPS, remaining_quota // step,
    min_remaining))``, its end ``start + steps * step``.  The layout ends
    at the first member finish or at the quota, and before any chunk
    whose KV growth the GPU cache cannot hold at formation
    (``SlabAllocator.capacity_for``), so a growth that fails does so in
    a run's last chunk, where the loop's swap-out path takes over.  The
    layout is kept as one flat list, ``start, step, steps`` per chunk,
    the values the loop computes.

    Landing a stretch of chunks does what the loop did after each of
    their timeouts.  The stretch's tokens go to every ready request as
    one shared record, a :class:`~repro.engine.request.Stretch` that
    copies the stretch's slice of the layout into an exactly sized
    ``array('d')`` (:func:`~repro.engine.request.commit_stretch`); then,
    chunk by chunk, ``engine.busy_time`` and each request's KV growth
    when it crosses a block.  A traced run records each chunk's
    ``decode`` exec span ahead, with the chunk's own start and end
    (``Tracer.defer``), so spans keep the order the per-chunk loop
    recorded them in; a chunk that never lands withdraws its span.

    The run watches its engine's GPU cache and its batch's pending KV
    transfers (their :class:`~repro.transfer.CudaEvent`): it is their
    ``_run`` while it is live.  Any of these splits it at the first
    chunk end at or after ``now`` (:meth:`Run.split`): a join to its
    batch (:meth:`DecodeInstance.kick`), a pending member's KV transfer
    completing (``CudaEvent._complete``), an ``engine.perf_factor``
    change, or an alloc on that cache.  A free on that cache settles it
    first (:meth:`Run.settle`), as do an invariant sweep and result
    collection (``env.settle_runs()``); :meth:`DecodeInstance.fail`
    halts it (:meth:`halt`).
    """

    __slots__ = ("instance", "batch", "ready", "size", "layout", "spans")

    def __init__(
        self,
        instance: "DecodeInstance",
        batch: DecodeBatch,
        ready: list[Request],
        context: int,
        remaining: int,
        quota: float,
        turn_start: float,
        pending: list,
    ):
        engine = instance.engine
        spec = batch.spec
        count = len(ready)
        # engine.decode_step_time, with the model and factor looked up once.
        step_time = engine.latency_model(spec).decode_step_time
        factor = engine.perf_factor
        t = instance.env.now
        layout = []  # start, step, steps per chunk
        ends = []
        left = remaining
        while True:
            step = step_time(count, context) * factor
            # max(1, min(DECODE_CHUNK_STEPS, quota left // step, left))
            steps = (
                int((quota - (t - turn_start)) // step) if step > 0 else DECODE_CHUNK_STEPS
            )
            if steps > DECODE_CHUNK_STEPS:
                steps = DECODE_CHUNK_STEPS
            if steps > left:
                steps = left
            if steps < 1:
                steps = 1
            layout += (t, step, steps)
            t = t + steps * step
            ends.append(t)
            left -= steps
            context += count * steps
            if left <= 0 or not t - turn_start < quota:
                break
        if len(ends) > 1:
            cut = _growth_cut(engine.gpu_kv_cache, ready, layout, remaining - left)
            del layout[3 * cut:], ends[cut:]
        Run.__init__(self, instance.env, ends, (engine.gpu_kv_cache, *pending))
        self.instance = instance
        self.batch = batch
        self.ready = ready
        self.size = len(batch.requests)
        self.layout = layout
        tracer = engine._tracer
        self.spans = None
        if tracer.enabled:
            parent = tracer.innermost(engine.name)
            start = self.start
            self.spans = spans = []
            for end in ends:
                spans.append(tracer.defer(
                    "decode", "exec", engine.name, start, end,
                    parent=parent, model=spec.name,
                ))
                start = end

    def land(self, first: int, stop: int) -> None:
        instance = self.instance
        engine = instance.engine
        gpu_cache = engine.gpu_kv_cache
        ready = self.ready
        layout = self.layout
        commit_stretch(ready, Stretch(layout[3 * first : 3 * stop]))
        for k in range(3 * first + 1, 3 * stop, 3):
            step = layout[k]
            steps = layout[k + 1]
            engine.busy_time += steps * step
            # Grow each request's KV (RequestKv.grow only when a block
            # boundary is crossed): steps never exceed any ready
            # request's remaining tokens.
            for request in ready:
                kv = request.kv
                tokens = kv.tokens + steps
                if tokens <= kv.capacity_tokens:
                    kv.tokens = tokens
                    continue
                try:
                    kv.grow(steps, gpu_cache)
                except MemoryError:
                    instance._grow_failed(self.batch, request)

    def hand(self, index: int) -> Optional[Event]:
        """Cut the layout after chunk ``index``, in flight; the loop
        resumes at its end unless it already ends the run."""
        ends = self.ends
        if index == len(ends) - 1:
            return None
        self._drop(index + 1)
        return self.env.timeout_at(ends[index])

    def _drop(self, index: int) -> None:
        """Cut the layout before chunk ``index``, withdrawing the spans
        of the chunks cut."""
        del self.ends[index:], self.layout[3 * index:]
        if self.spans is not None:
            for entry in self.spans[index:]:
                Tracer.withdraw(entry)
            del self.spans[index:]

    def finish(self) -> None:
        """Retire, then land every chunk left."""
        Run.finish(self)
        if self.spans is not None:
            self.instance.engine._tracer.flush()

    def halt(self) -> None:
        """The instance fails at ``now``: land the chunks that ended
        before it and drop the rest.  The chunk in flight is cut short,
        as the interrupted loop's was: its span ends at ``now``, and its
        tokens and busy time never land.  The interrupt that follows
        cancels the run's timeout."""
        ends = self.ends
        now = self.env.now
        cut = self.landed
        while cut < len(ends) and ends[cut] < now:
            cut += 1
        cut_span = None
        if cut < len(ends) and self.spans is not None:
            cut_span = self.spans[cut][2]
        self._drop(cut)
        self.finish()
        if cut_span is not None:
            engine = self.instance.engine
            engine._tracer.complete(
                cut_span.name, cut_span.cat, cut_span.track, cut_span.start, now,
                parent=cut_span.parent, **cut_span.args,
            )


def _growth_cut(
    gpu_cache: SlabAllocator, ready: list[Request], layout: list, total: int
) -> int:
    """How many chunks of ``layout`` (``start, step, steps`` each;
    ``total`` steps) the cache's free room holds the KV growth of, at
    least one: the blocks each chunk adds,
    summed from the first chunk on, against ``capacity_for`` now.  A
    grow only takes blocks and a free only adds them, so growth within
    that prefix never fails.
    """
    kv = ready[0].kv
    room = gpu_cache.capacity_for(kv.shape, kv.block_bytes)
    # A request gains at most one block per token.
    chunks = len(layout) // 3
    if len(ready) * total <= room:
        return chunks
    added = 0
    for index, steps in enumerate(layout[2::3]):
        added += steps
        need = 0
        for request in ready:
            kv = request.kv
            tokens = kv.tokens + added
            if tokens > kv.capacity_tokens:
                need += -(-tokens // kv.block_tokens) - kv.capacity_tokens // kv.block_tokens
        if need > room:
            return max(1, index)
    return chunks


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
        self.process = env.process(self._loop())

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

    # -- the instance loop ------------------------------------------------------
    def _loop(self) -> Generator:
        """Algorithm 1's execution loop: one job at a time, front to back.

        A job whose KV allocation or swap-out finds its cache full parks
        on that cache's next ``free`` (never on a timer) and retries at
        that instant; a KV larger than the whole empty region fails its
        request, like an unreachable checkpoint.  A request whose only
        output token is the one prefill makes is handed over finished,
        its KV freed instead of offloaded.  An instance failure ends the
        loop quietly.
        """
        env = self.env
        engine = self.engine
        manager = engine.kv
        tracer = self._tracer
        exec_tracer = engine._tracer
        try:
            while True:
                if not self.groups:
                    self._wake = env.event()
                    yield self._wake
                    self._wake = None
                    continue
                group = self.groups[0]
                if group.exhausted:
                    self.groups.pop(0)
                    continue
                request = group.requests.popleft()
                self._inflight = request
                spec = group.spec
                try:
                    with (
                        tracer.span(
                            "prefill_job", cat="lifecycle", track=self.name,
                            request_id=request.request_id, model=request.model,
                        )
                        if tracer.enabled else NULL_SPAN
                    ):
                        if self.scaling.should_switch(engine, spec):
                            current = engine.current_model
                            policy_event(
                                tracer, "scale", instance=self.name, phase="prefill",
                                model=spec.name,
                                evicted=None if current is None else current.name,
                            )
                            yield from engine.scale_to(spec)
                        # Look ahead: start prefetching the following
                        # group's model while this job runs.
                        self._prefetch_next(spec)
                        request.kv = RequestKv(
                            request_id=request.request_id,
                            shape=kv_shape(request.spec, engine.config.tp),
                            tokens=request.input_tokens,
                        )
                        yield from self._with_room(manager.alloc_gpu, request.kv, manager.gpu_cache)
                        request.phase = Phase.PREFILLING
                        request.prefill_start = env.now
                        engine._require_active(spec)
                        duration = (
                            engine.latency_model(spec).prefill_time([request.input_tokens])
                            * engine.perf_factor
                        )
                        with (
                            exec_tracer.span(
                                "prefill", cat="exec", track=engine.name,
                                model=spec.name, batch=1,
                            )
                            if exec_tracer.enabled else NULL_SPAN
                        ):
                            yield env.timeout(duration)
                        engine.busy_time += duration
                        now = env.now
                        request.prefill_end = now
                        request.record_tokens([now])  # the first output token
                        if request.finished:
                            # Its only token came from prefill: no decode
                            # turn, and its KV goes at once.
                            manager.free_gpu(request.kv)
                            request.complete(now)
                            self.on_prefilled(request)
                            self._inflight = None
                            continue
                        # Offload the prompt KV to the unified CPU cache.
                        # Under fine-grained sync this overlaps with the
                        # next prefill; the unoptimized path drains first.
                        yield from self._with_room(manager.swap_out, request.kv, manager.cpu_cache)
                        if not engine.config.fine_grained_sync:
                            yield from manager.drain()
                        request.phase = Phase.DECODING
                        request.decode_enqueue = env.now
                        self.on_prefilled(request)
                except (KvTooLargeError, CheckpointFetchError) as exc:
                    # Fail the job instead of wedging the queue behind it
                    # (a checkpoint fetch exhausted its retry budget: the
                    # registry is persistently unreachable for the model).
                    if isinstance(exc, CheckpointFetchError):
                        self.fetch_aborts += 1
                    self._fail_job(request)
                self._inflight = None
        except Interrupt:
            return

    def _with_room(self, place: Callable, kv: RequestKv, cache: SlabAllocator) -> Generator:
        """``place(kv)``; while ``cache`` is full, park on its next free
        and retry.  A KV larger than the whole region raises."""
        while True:
            try:
                return place(kv)
            except KvTooLargeError:
                raise
            except MemoryError:
                self.kv_waits += 1
                event = self.env.event()
                cache.wake_on_free(event)
                yield event

    def _fail_job(self, request: Request) -> None:
        """Drop the in-flight request's KV and report it failed."""
        if request.kv is not None:
            self.engine.kv.abort_request(request.kv)
            request.kv = None
        request.reset_progress()
        if self.on_failed is not None:
            self.on_failed(request)


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
        tunables: Tunables = DEFAULT_TUNABLES,
        scaling: Optional[ScalingPolicy] = None,
    ):
        self.env = env
        self.engine = engine
        self.slo = slo
        self.on_finished = on_finished
        self.on_failed = on_failed
        self.name = name
        self.round_policy = WeightedRoundPolicy(tunables)
        self.scaling: ScalingPolicy = scaling if scaling is not None else TokenLevelScaling()
        self.work_list: list[DecodeBatch] = []
        self.dead = False
        self.fetch_aborts = 0
        # Swap-ins with no GPU room, swap-outs with no CPU room.
        self.left_on_cpu = 0
        self.kept_resident = 0
        self._wake: Optional[Event] = None
        self.rounds = 0
        self._tracer = obs.tracer
        scope = obs.scoped(name)
        self._round_counter = scope.counter("rounds")
        self._turn_counter = scope.counter("turns")
        if obs.enabled:
            scope.gauge("work_list_batches").set_fn(lambda: len(self.work_list))
            scope.gauge("queued_requests").set_fn(
                lambda: sum(batch.size for batch in self.work_list)
            )
        self.process = env.process(self._loop())

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
        """Wake the instance loop after new work arrives.

        A join to the batch a decode run is decoding splits the run: the
        loop swaps the joiner in at the next chunk boundary.
        """
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        run = self.engine.gpu_kv_cache._run
        if run is not None and len(run.batch.requests) != run.size:
            run.split()

    def fail(self) -> list[Request]:
        """Take this instance offline (its GPUs died); returns orphans.

        A decode run in flight halts first (``DecodeRun.halt``).
        Finished requests still sitting in a batch complete normally;
        every other request is harvested for the server to reschedule.
        """
        if self.dead:
            return []
        self.dead = True
        run = self.engine.gpu_kv_cache._run
        if run is not None:
            run.halt()
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

    def _grow_failed(self, batch: DecodeBatch, request: Request) -> None:
        """A chunk's KV growth found the GPU cache full (the tokens stay
        counted).  A finished request retires with its blocks; any other
        is demoted until space frees, or fails when the CPU cache cannot
        take it either."""
        if request.generated_tokens >= request.output_tokens:
            return
        try:
            self.engine.kv.swap_out(request.kv)
        except MemoryError:
            batch.requests.remove(request)
            self._fail(request)

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

    def _swap_in(self, batch: DecodeBatch, left: Optional[set]) -> Optional[set]:
        """Swap in ``batch``'s CPU-resident KV; returns the ids left on the CPU.

        A request with no GPU room is left on the CPU for this turn (its
        id joins ``left``, which is created on first use); one whose KV
        exceeds the whole GPU region fails.
        """
        manager = self.engine.kv
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
                self._fail(request)
            except MemoryError:
                self.left_on_cpu += 1
                if left is None:
                    left = set()
                left.add(request.request_id)
        return left

    # -- the instance loop ------------------------------------------------------
    def _loop(self) -> Generator:
        """Algorithm 2's execution loop: weighted rounds of decode turns.

        Each turn scales the engine to its batch's model, swaps the
        batch's KV in, decodes in chunks of up to ``DECODE_CHUNK_STEPS``
        steps until its quota is spent, and swaps the KV out again.  The
        chunks that follow one ready set go as one :class:`DecodeRun`.
        The run's timeout, the rule-❶ stall and the idle waits resume
        this frame directly; only the model switch and the KV drains run
        through ``yield from``.

        The loop never waits for KV space: its own other batches hold
        it.  A swap-in with no GPU room leaves the request on the CPU for
        the turn, which decodes what is resident, and a turn with
        nothing resident or in transit ends at once.  A swap-out the CPU
        cache cannot take leaves the KV on the GPU.  A request that can
        neither grow on the GPU nor move to the CPU, or whose KV exceeds
        the whole GPU region, fails.  A round that ends with the clock
        unmoved parks until the GPU cache frees blocks or new work
        arrives.  An instance failure ends the loop quietly.
        """
        env = self.env
        engine = self.engine
        manager = engine.kv
        tracer = self._tracer
        try:
            while True:
                self._prune()
                if not self.work_list:
                    self._wake = env.event()
                    yield self._wake
                    self._wake = None
                    continue
                # One full rotation of the work list (Algorithm 2, lines 4-11).
                self.rounds += 1
                self._round_counter.inc()
                reordered = self.round_policy.order(self.work_list)
                if reordered is not self.work_list:
                    self.work_list[:] = reordered
                batches = list(self.work_list)
                step_times = [
                    engine.decode_step_time(
                        batch.spec, batch.size or 1, batch.context_tokens or 1
                    )
                    for batch in batches
                ]
                switch_cost = self._round_switch_cost(batches)
                quotas = self.round_policy.quotas(batches, step_times, switch_cost, self.slo)
                round_start = env.now
                with (
                    tracer.span(
                        "decode_round", cat="sched", track=self.name, batches=len(batches)
                    )
                    if tracer.enabled else NULL_SPAN
                ):
                    for index, (batch, quota) in enumerate(zip(batches, quotas)):
                        if batch.exhausted:
                            continue
                        self._turn_counter.inc()
                        spec = batch.spec
                        # One weighted turn: scale, swap in, decode, swap out.
                        with (
                            tracer.span(
                                "decode_turn", cat="sched", track=self.name,
                                model=spec.name, quota=quota, batch=batch.size,
                            )
                            if tracer.enabled else NULL_SPAN
                        ):
                            if self.scaling.should_switch(engine, spec):
                                current = engine.current_model
                                policy_event(
                                    tracer, "scale", instance=self.name, phase="decode",
                                    model=spec.name,
                                    evicted=None if current is None else current.name,
                                )
                                try:
                                    yield from engine.scale_to(spec)
                                except CheckpointFetchError:
                                    # Persistently unreachable checkpoint:
                                    # fail this model's batch instead of
                                    # wedging the rotation behind it.
                                    self.fetch_aborts += 1
                                    self._abort_batch(batch)
                                    continue
                            self._prefetch_after(batch)
                            left = self._swap_in(batch, None)
                            if not engine.config.fine_grained_sync:
                                yield from manager.drain()
                            # Figure 10's overlap: while this turn decodes,
                            # the *next* batch's KV streams in on the kv_in
                            # stream, guarded by per-request events — by its
                            # turn, rule ❶ is already met.
                            self._issue_swap_in_async(batches, index)
                            turn_start = env.now
                            while env.now - turn_start < quota and not batch.exhausted:
                                # One pass: requests that joined the batch
                                # mid-round still sit in the CPU cache and
                                # must be pulled in before the turn decodes;
                                # the same pass gathers the ready set (rule
                                # ❶), the context total and the minimum
                                # remaining tokens it implies, and the
                                # transfers still pending.  This loop runs
                                # once per decode run.
                                ready = []
                                ready_append = ready.append
                                pending = []
                                context_total = 0
                                min_remaining = 0
                                swap = False
                                for r in batch.requests:
                                    kv = r.kv
                                    if kv is None:
                                        continue
                                    location = kv.location
                                    if location == "cpu":
                                        if left is None or r.request_id not in left:
                                            swap = True
                                            break
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
                                        else:
                                            pending.append(transfer)
                                if swap:
                                    left = self._swap_in(batch, left)
                                    if not engine.config.fine_grained_sync:
                                        yield from manager.drain()
                                    continue
                                if not ready:
                                    # Rule ❶ stall: no request's KV is usable
                                    # yet.  With nothing in transit either,
                                    # waiting cannot help this turn: it ends,
                                    # and the batches holding the GPU decode.
                                    waits = [
                                        r.kv.last_transfer.wait()
                                        for r in batch.requests
                                        if r.kv is not None and r.kv.last_transfer is not None
                                        and not r.kv.last_transfer.query()
                                    ]
                                    if not waits:
                                        break
                                    stall_start = env.now
                                    yield env.any_of(waits)
                                    if batch.requests:
                                        manager.stats.charge_wait(
                                            batch.requests[0],
                                            env.now - stall_start,
                                        )
                                    continue
                                engine._require_active(spec)
                                run = DecodeRun(
                                    self, batch, ready, context_total, min_remaining,
                                    quota, turn_start, pending,
                                )
                                yield run.timeout
                                run.finish()
                                self._retire_finished(batch)
                            else:
                                # The quota is spent (or the batch is): swap
                                # the batch out when other models share the
                                # GPU; KV the CPU cache cannot take stays.
                                if self._distinct_models() > 1:
                                    for request in batch.requests:
                                        kv = request.kv
                                        if kv is not None and kv.location == "gpu":
                                            try:
                                                manager.swap_out(kv)
                                            except MemoryError:
                                                self.kept_resident += 1
                                    if not engine.config.fine_grained_sync:
                                        yield from manager.drain()
                self._prune()
                if env.now == round_start and self.work_list:
                    # Every turn ended at once: nothing can change until
                    # the GPU cache frees blocks (an in-flight swap-out
                    # source whose request left the work list) or new
                    # work arrives.
                    wake = self._wake = env.event()
                    manager.gpu_cache.wake_on_free(wake)
                    yield wake
                    self._wake = None
        except Interrupt:
            return
