"""Runtime invariant checking for serving runs.

An :class:`InvariantChecker` attaches to any serving system speaking the
:class:`~repro.core.serving.ServingSystem` protocol and periodically
verifies, *while the run is in flight*, that the system still preserves
the paper's scheduling semantics:

**I1 — KV-block conservation.**  For every slab allocator, internal
accounting is exact (every assigned slab partly or fully used, per-shape
free blocks reconcile with the kept free total, ``held_bytes`` matches
assigned slabs, peak is monotone, allocated−freed equals live
blocks).  Across the system, every live block is owned by exactly one
party: a request's KV handle, a move list (rule ❸ deferred frees), or an
in-flight swap-out source.  CPU-cache ownership reconciles exactly;
GPU-cache ownership reconciles as a sum across engines.  A request's
KV handle holds no live extent by the time the system disposes of it.

**I2 — Token monotonicity.**  Per request: token timestamps are
non-decreasing, never exceed the requested output length, never precede
arrival, and never lie in the simulation's future.

**I3 — No work on dead instances.**  A failed instance holds no queued
groups or batches and is absent from every scheduler's dispatch list.

**I4 — SLO-accounting consistency.**  The registry saw exactly the
proxy's admissions, the proxy's in-flight map mirrors the registry's
in-flight arithmetic, the system's disposal count equals the registry's
finished + failed + rejected tally, a request disposed as FINISHED
has a complete token stream and a finish timestamp, and every disposed
request's committed met-token count (``Request.met_tokens``) equals the
I2 walk's recount of its token stream against the system's SLO.

Per-tick checks walk only the proxy's in-flight requests; each request
gets a last I2 pass and its I4 finish check in :meth:`vet_terminal` as
the system disposes of it, so checker cost and memory track concurrency
whether or not the run retains its requests.

Violations are collected (not raised mid-run) so a test can complete a
faulted scenario and then :meth:`assert_clean` — the difference between
"did not crash" and "provably preserved the invariants under chaos".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

from ..engine.request import Phase

__all__ = ["InvariantChecker", "InvariantViolation", "Violation"]

#: Simulated seconds between periodic checks.
CHECK_INTERVAL_S = 0.5
#: Violations kept; the periodic checks stop once this many are recorded.
MAX_VIOLATIONS = 100


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_clean` on any violation."""


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.3f}] {self.invariant}: {self.detail}"


class InvariantChecker:
    """Periodic, attachable runtime verifier for one serving system."""

    def __init__(self, system):
        self.system = system
        self.env = system.env
        self.violations: list[Violation] = []
        self.checks_run = 0
        # Per-request token-run cursor: runs before the cursor were
        # already verified, so each check walks only the runs appended
        # since — cheap enough for every test.  Next to each cursor: the
        # token index it stands at, the met-token recount up to it, and
        # the first run object, which tells a restarted stream from a
        # grown one.
        self._token_cursor: dict[int, tuple[int, int, int, tuple]] = {}
        self._slo = system.slo
        self._process = self.env.process(self._run())

    # -- driver -------------------------------------------------------------
    def _run(self) -> Generator:
        while len(self.violations) < MAX_VIOLATIONS:
            yield self.env.timeout(CHECK_INTERVAL_S)
            self.check_now()

    def check_now(self) -> list[Violation]:
        """Run every invariant once; returns violations found this pass."""
        before = len(self.violations)
        self._check_kv_conservation()
        self._check_tokens()
        self._check_dead_instances()
        self._check_accounting()
        self.checks_run += 1
        return self.violations[before:]

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if any check ever failed."""
        if self.violations:
            summary = "\n".join(str(v) for v in self.violations[:20])
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s):\n{summary}"
            )

    def _flag(self, invariant: str, detail: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(self.env.now, invariant, detail))

    # -- I1: KV-block conservation -----------------------------------------
    def _check_kv_conservation(self) -> None:
        engines = self._engines()
        if not engines:
            return
        gpu_used_total = 0
        cpu_caches: dict[int, object] = {}
        move_lists: dict[int, object] = {}
        inflight_sources = 0
        for engine in engines:
            gpu_used_total += self._check_allocator(engine.gpu_kv_cache)
            manager = engine.kv
            cpu_caches[id(manager.cpu_cache)] = manager.cpu_cache
            move_lists[id(manager.move_list)] = manager.move_list
            inflight_sources += sum(
                len(extent) for extent in manager.inflight_sources
            )
        cpu_used_total = sum(
            self._check_allocator(cache) for cache in cpu_caches.values()
        )
        # Counting, not per-block identity: a double-owned block makes
        # the owned side exceed the allocator's live count, so the exact
        # equations below catch leaks AND double-ownership in aggregate
        # at O(requests) instead of O(blocks) per check.
        owned_gpu = 0
        owned_cpu = 0
        for request in self._requests():
            kv = request.kv
            if kv is None:
                continue
            if kv.gpu_blocks is not None:
                owned_gpu += len(kv.gpu_blocks)
            if kv.cpu_blocks is not None:
                owned_cpu += len(kv.cpu_blocks)
        moving = sum(
            move_list.pending_blocks for move_list in move_lists.values()
        )
        if owned_cpu + moving != cpu_used_total:
            self._flag(
                "kv-conservation",
                f"CPU cache leak: {cpu_used_total} blocks live in the "
                f"allocator, {owned_cpu} owned by requests + {moving} in "
                "move lists",
            )
        if owned_gpu + inflight_sources != gpu_used_total:
            self._flag(
                "kv-conservation",
                f"GPU cache leak: {gpu_used_total} blocks live across "
                f"engines, {owned_gpu} owned by requests + "
                f"{inflight_sources} in-flight swap-out sources",
            )

    def _check_allocator(self, allocator) -> int:
        """Verify one slab allocator's internal accounting; returns its
        live (used) block count.

        Only assigned slabs are walked (a mostly-empty multi-thousand
        slab CPU cache would dominate the check otherwise); the free
        pool is verified by count against the region total.  A slab's
        free blocks are its capacity less ``used_count``, so per shape
        they must add up to the incrementally kept ``free_count``.
        """
        used_total = 0
        assigned = 0
        slabs = allocator._slabs
        for shape, rec in allocator._shapes.items():
            free = 0
            for index in rec.slabs:
                slab = slabs[index]
                used = slab.used_count
                capacity = slab.blocks_per_slab
                if not 0 < used <= capacity:
                    self._flag(
                        "kv-conservation",
                        f"{allocator.name}: assigned slab {index} holds "
                        f"{used} of {capacity} blocks",
                    )
                free += capacity - used
                used_total += used
            assigned += len(rec.slabs)
            if free != rec.free_count:
                self._flag(
                    "kv-conservation",
                    f"{allocator.name}: shape {shape!r} slabs have {free} "
                    f"free blocks, free_count says {rec.free_count}",
                )
        free_slabs = allocator.free_slab_count
        if assigned + free_slabs != allocator.slab_count:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: {assigned} assigned + {free_slabs} free "
                f"slabs != {allocator.slab_count} in the region",
            )
        if allocator.held_bytes != assigned * allocator.slab_bytes:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: held_bytes {allocator.held_bytes} != "
                f"{assigned} assigned slabs x {allocator.slab_bytes}",
            )
        if allocator.peak_held_bytes < allocator.held_bytes:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: peak {allocator.peak_held_bytes} below "
                f"current held {allocator.held_bytes}",
            )
        if allocator.blocks_allocated - allocator.blocks_freed != used_total:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: allocated {allocator.blocks_allocated} - "
                f"freed {allocator.blocks_freed} != {used_total} live blocks",
            )
        return used_total

    # -- I2: token monotonicity --------------------------------------------
    def _check_tokens(self) -> None:
        now = self.env.now
        for request in self._requests():
            self._check_request_tokens(request, now)

    def _check_request_tokens(self, request, now: float) -> int:
        """Verify ``request``'s token runs from its cursor onwards;
        returns how many of its tokens met their deadlines."""
        cursors = self._token_cursor
        runs = request.runs
        count = request.generated_tokens
        if count > request.output_tokens:
            self._flag(
                "token-monotonicity",
                f"request {request.request_id} generated {count} "
                f"tokens of {request.output_tokens}",
            )
        if not runs:
            # Chaos reset the stream (or it never started).
            cursors.pop(request.request_id, None)
            return 0
        first_run = runs[0]
        cursor = cursors.get(request.request_id)
        if cursor is None or cursor[3] is not first_run or cursor[0] > len(runs):
            # New, or the stream restarted: verify from scratch.
            position = index = met = 0
            prev = request.first_token_time
            if prev < request.arrival:
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} token before arrival",
                )
        else:
            position, index, met, _ = cursor
            start, step, n = runs[position - 1]
            prev = start + n * step
        # Token k is due at arrival + TTFT + k * TBT, the system's SLO
        # (the same float expression as ``core.slo.tokens_met``).  A run
        # with ``step >= 0`` whose first token is not before the previous
        # run's last is non-decreasing throughout (float rounding is
        # monotone); the met recount still walks every token.
        base = request.arrival + self._slo.ttft
        tbt = self._slo.tbt
        decreasing = False
        for position in range(position, len(runs)):
            start, step, n = runs[position]
            if not decreasing and (step < 0 or start + step < prev):
                decreasing = True
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} timestamps decrease "
                    f"in the run from index {index}",
                )
            for i in range(1, n + 1):
                if start + i * step <= base + tbt * index:
                    met += 1
                index += 1
            prev = start + n * step
        if index != count:
            self._flag(
                "token-monotonicity",
                f"request {request.request_id} runs hold {index} tokens, "
                f"generated_tokens says {count}",
            )
        if prev > now + 1e-9:
            self._flag(
                "token-monotonicity",
                f"request {request.request_id} token in the future "
                f"({prev:.3f} > {now:.3f})",
            )
        cursors[request.request_id] = (len(runs), index, met, first_run)
        return met

    # -- I3: no work on dead instances --------------------------------------
    def _check_dead_instances(self) -> None:
        system = self.system
        pools = (
            getattr(system, "prefill_instances", ()),
            getattr(system, "decode_instances", ()),
        )
        schedulers = [
            sched
            for sched in (
                getattr(system, "prefill_scheduler", None),
                getattr(system, "decode_scheduler", None),
            )
            if sched is not None
        ]
        for pool in pools:
            for instance in pool:
                if not getattr(instance, "dead", False):
                    continue
                queued = sum(
                    len(group.requests)
                    for group in getattr(instance, "groups", ())
                ) + sum(
                    len(batch.requests)
                    for batch in getattr(instance, "work_list", ())
                )
                if queued:
                    self._flag(
                        "dead-instance",
                        f"{instance.name} is dead but holds {queued} "
                        "queued request(s)",
                    )
                for sched in schedulers:
                    if instance in sched.instances:
                        self._flag(
                            "dead-instance",
                            f"{instance.name} is dead but still in "
                            f"{type(sched).__name__}'s dispatch list",
                        )

    # -- I4: SLO-accounting consistency --------------------------------------
    def _check_accounting(self) -> None:
        system = self.system
        registry = getattr(system, "registry", None)
        proxy = getattr(system, "proxy", None)
        if registry is None or proxy is None:
            return
        if registry.submitted != proxy.submitted:
            self._flag(
                "slo-accounting",
                f"registry saw {registry.submitted} submissions, proxy "
                f"admitted {proxy.submitted} requests",
            )
        if len(proxy.live) != registry.in_flight:
            self._flag(
                "slo-accounting",
                f"proxy tracks {len(proxy.live)} live requests, registry "
                f"arithmetic says {registry.in_flight} in flight",
            )
        accounted = getattr(system, "accounted", 0)
        terminal = registry.finished + registry.failed + registry.rejected
        if accounted != terminal:
            self._flag(
                "slo-accounting",
                f"system disposed of {accounted} requests, registry counts "
                f"{terminal} terminal",
            )
        if accounted > registry.submitted:
            self._flag(
                "slo-accounting",
                f"{accounted} requests accounted for, only "
                f"{registry.submitted} submitted",
            )
        if registry.in_flight < 0:
            self._flag(
                "slo-accounting", f"negative in-flight: {registry.in_flight}"
            )

    def vet_terminal(self, request) -> None:
        """Per-request vetting at disposal time.

        Each request is checked once, right before the system drops it
        from the in-flight map: its token stream gets a last I2 pass
        from the cursor onwards, a FINISHED request must be complete,
        the request's committed met-token count must equal the walk's
        recount, the request's KV handle must hold no live extent (I1:
        its blocks went back to their cache or a move list before
        disposal, so a leak is named at the request that caused it),
        and the cursor is released so checker memory tracks
        concurrency.
        """
        kv = request.kv
        if kv is not None:
            for extent in (kv.gpu_blocks, kv.cpu_blocks):
                if extent is not None and extent.live:
                    self._flag(
                        "kv-conservation",
                        f"request {request.request_id} disposed still "
                        f"holding {extent!r}",
                    )
        met = self._check_request_tokens(request, self.env.now)
        if request.phase is Phase.FINISHED and (
            not request.finished or request.finish_time is None
        ):
            self._flag(
                "slo-accounting",
                f"request {request.request_id} disposed as finished with an "
                "incomplete token stream",
            )
        if request.met_tokens != met:
            self._flag(
                "slo-accounting",
                f"request {request.request_id} counts {request.met_tokens} "
                f"met tokens, its token stream has {met}",
            )
        self._token_cursor.pop(request.request_id, None)

    # -- access helpers -------------------------------------------------------
    def _engines(self) -> list:
        engines = getattr(self.system, "engines", None)
        return list(engines()) if callable(engines) else []

    def _requests(self) -> Iterable:
        proxy = getattr(self.system, "proxy", None)
        return proxy.live.values() if proxy is not None else ()
