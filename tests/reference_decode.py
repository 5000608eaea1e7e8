"""Per-chunk decode turns: the oracle for ``repro.core.instance``'s runs.

``loop`` below is ``DecodeInstance._loop`` as it stood before decode
runs, kept verbatim apart from this paragraph, its name and absolute
imports.  Every decode chunk is one timeout: the turn rescans its
batch's ready set, times one chunk of up to ``DECODE_CHUNK_STEPS``
steps, yields its timeout inside a traced ``decode`` exec span, then
commits its tokens, grows each request's KV and retires finished
requests.  Every chunk boundary is therefore an event, and every join,
KV arrival, ``perf_factor`` change or failure meets the batch exactly as
the chunk chain leaves it.  :func:`per_chunk` installs it in place of
the production loop, so the differential test in
``test_decode_runs.py`` can check that runs commit the same tokens,
grow the same KV and record the same spans.  The function's own
docstring is its original description.

``commit_chunk`` is the per-chunk token commit that loop made, kept
verbatim too apart from its run record: it appends the chunk as a
one-chunk :class:`~repro.engine.request.Stretch` where it once appended
the tuple ``(chunk_start, step, steps)``.  It is the met-token oracle
for ``commit_stretch``, which brackets a whole stretch of chunks at
once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Iterator, Sequence

from repro.core.instance import DECODE_CHUNK_STEPS, DecodeInstance
from repro.engine.request import Request, Stretch, count_met
from repro.obs.tracer import NULL_SPAN
from repro.policy.base import policy_event
from repro.sim import Interrupt
from repro.transfer.loader import CheckpointFetchError

__all__ = ["commit_chunk", "loop", "per_chunk"]


def commit_chunk(
    requests: Sequence[Request], chunk_start: float, step: float, steps: int
) -> None:
    """Commit one decode chunk to every request of a batch: ``steps``
    tokens, ``step`` seconds apart, the first done at ``chunk_start +
    step``, appended to each request as the one shared run ``(chunk_start,
    step, steps)`` (``steps`` never exceeds a request's remaining
    tokens).

    Met tokens are bracketed by the chunk's ends.  A chunk's times are
    non-decreasing and so are a request's deadlines (float rounding is
    monotone), so the last time meeting the first token's deadline means
    every token is met, and the first time missing the last token's
    deadline means none is.  Only a chunk straddling a deadline is
    counted token by token.  ``met_until`` is an earlier deadline than
    the first token's, so a chunk done by then needs no arithmetic; it
    is brought up to the first token's deadline only when the chunk
    ends after it.
    """
    # One run object shared across the batch: token i of the chunk is
    # ``chunk_start + (i + 1) * step``.  The per-token list is built only
    # for a straddling chunk, at most once.
    run = Stretch((chunk_start, step, steps))
    first_time = chunk_start + step
    last_time = chunk_start + steps * step
    times = None
    for request in requests:
        generated = request.generated_tokens
        if last_time <= request.met_until:
            request.met_tokens += steps
        else:
            base = request.slo_base
            tbt = request.slo_tbt
            due = request.met_until = base + tbt * generated
            if last_time <= due:
                request.met_tokens += steps
            elif first_time <= base + tbt * (generated + steps - 1):
                if times is None:
                    times = [chunk_start + (i + 1) * step for i in range(steps)]
                request.met_tokens += count_met(times, base, tbt, generated)
        request.runs.append(run)
        request.generated_tokens = generated + steps


def loop(self) -> Generator:
    """Algorithm 2's execution loop: weighted rounds of decode turns.

    Each turn scales the engine to its batch's model, swaps the
    batch's KV in, decodes in chunks of up to ``DECODE_CHUNK_STEPS``
    steps until its quota is spent, and swaps the KV out again.  The
    chunk timeout, the rule-❶ stall and the idle waits resume this
    frame directly; only the model switch and the KV drains run
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
    gpu_cache = engine.gpu_kv_cache
    tracer = self._tracer
    exec_tracer = engine._tracer
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
                            # ❶) plus the context total and the minimum
                            # remaining tokens it implies.  This loop
                            # runs once per decode chunk.
                            ready = []
                            ready_append = ready.append
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
                                pending = [
                                    r.kv.last_transfer.wait()
                                    for r in batch.requests
                                    if r.kv is not None and r.kv.last_transfer is not None
                                    and not r.kv.last_transfer.query()
                                ]
                                if not pending:
                                    break
                                stall_start = env.now
                                yield env.any_of(pending)
                                if batch.requests:
                                    manager.stats.charge_wait(
                                        batch.requests[0],
                                        env.now - stall_start,
                                    )
                                continue
                            step = engine.decode_step_time(spec, len(ready), context_total)
                            remaining_time = quota - (env.now - turn_start)
                            steps = max(1, min(
                                DECODE_CHUNK_STEPS,
                                int(remaining_time // step) if step > 0 else DECODE_CHUNK_STEPS,
                                min_remaining,
                            ))
                            chunk_start = env.now
                            duration = steps * step
                            engine._require_active(spec)
                            with (
                                exec_tracer.span(
                                    "decode", cat="exec", track=engine.name, model=spec.name
                                )
                                if exec_tracer.enabled else NULL_SPAN
                            ):
                                yield env.timeout(duration)
                            engine.busy_time += duration
                            commit_chunk(ready, chunk_start, step, steps)
                            # Grow each request's KV (RequestKv.grow only
                            # when a block boundary is crossed): steps
                            # never exceed any ready request's remaining
                            # tokens.
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
                                        continue  # retires below with its blocks
                                    # Cache pressure: demote this request
                                    # until space frees, or fail it when
                                    # the CPU cache cannot take it either.
                                    try:
                                        manager.swap_out(kv)
                                    except MemoryError:
                                        batch.requests.remove(request)
                                        self._fail(request)
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


@contextmanager
def per_chunk() -> Iterator[None]:
    """Build every ``DecodeInstance`` with the per-chunk loop while active."""
    original = DecodeInstance._loop
    DecodeInstance._loop = loop
    try:
        yield
    finally:
        DecodeInstance._loop = original
