"""Runtime invariant checking for serving runs.

An :class:`InvariantChecker` attaches to any serving system speaking the
:class:`~repro.core.serving.ServingSystem` protocol and verifies, *while
the run is in flight*, that the system still preserves the paper's
scheduling semantics:

**I1 — KV-block conservation.**  For every slab allocator, internal
accounting is exact (every assigned slab partly or fully used, per-shape
free blocks reconcile with the kept free total, ``held_bytes`` matches
assigned slabs, peak is monotone, allocated−freed equals live
blocks).  Every live block is owned by exactly one party: a request's KV
handle, a move list (rule ❸ deferred frees), or an in-flight swap-out
source, and the owners of each allocator's blocks add up to its live
count.  A request's KV handle holds no live extent by the time the
system disposes of it.

**I2 — Token monotonicity.**  Per request: token timestamps are
non-decreasing, never exceed the requested output length, never precede
arrival, and never lie in the simulation's future.

**I3 — No work on dead instances.**  A failed instance holds no queued
groups or batches and is absent from every scheduler's dispatch list.

**I4 — SLO-accounting consistency.**  The proxy's in-flight map mirrors
the registry's in-flight arithmetic (submitted − finished − failed −
rejected; the proxy's admissions and the system's disposals are those
registry counters), a request disposed as FINISHED
has a complete token stream and a finish timestamp, and every disposed
request's committed met-token count (``Request.met_tokens``) equals a
recount of its token stream against the system's SLO.

Each invariant is checked by the operation that can break it, at the
sim time it happens.  :meth:`InvariantChecker.arm` (run by ``replay``
before the clock starts, once the engines exist) installs instance-level
wrappers on one system's objects, so a run without a checker pays
nothing:

* I1 on every ``SlabAllocator.alloc`` / ``grow`` / ``free`` (the slabs
  touched, the O(1) byte identities, and allocated − freed against the
  checker's own live count), and on every ownership handoff
  (``KvTransferManager`` ``alloc_gpu`` / ``free_gpu`` / ``swap_out`` /
  ``swap_in`` / ``abort_request`` / ``_release_source``, ``MoveList``
  ``add`` / ``reclaim``), which feed per-allocator ownership counters
  and check that they add up to the live count;
* I2 on every committed run: each admitted request's ``runs`` list
  checks, chunk by chunk, the run that ``commit_stretch`` or
  ``record_tokens`` appends;
* I3 on ``fail_instance``;
* I4 and the met-token recount in :meth:`~InvariantChecker.vet_terminal`,
  as the system disposes of a request.

:meth:`~InvariantChecker.check_now` is a full sweep of all four
families.  ``replay`` runs one at collection and the fault injector one
after each delivered fault; ``checks_run`` counts sweeps.

Violations are collected (not raised mid-run), at most
:data:`MAX_VIOLATIONS` of them, so a test can complete a faulted
scenario and then :meth:`assert_clean` — the difference between "did
not crash" and "provably preserved the invariants under chaos".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..engine.request import Phase, run_chunks

__all__ = ["InvariantChecker", "InvariantViolation", "Violation", "met_in_runs"]

#: Violations kept; later ones are dropped (the run still completes).
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


def met_in_runs(runs: Sequence, base: float, tbt: float) -> int:
    """How many tokens of ``runs`` (bare floats or stretches) meet their
    deadlines, token k being due at ``base + tbt * k``; equal to the
    per-token count (see :func:`_walk_runs`)."""
    return _walk_runs(runs, base, tbt)[0]


def _walk_runs(runs: Sequence, base: float, tbt: float) -> tuple:
    """One pass over ``runs``, chunk by chunk: ``(met, tokens, last,
    decrease)``, the tokens that meet their deadlines (token k due at
    ``base + tbt * k``), the token count, the last token's time (-inf
    for no token) and the index of the first token of the first chunk
    that has ``step < 0`` or starts before the token ahead of it (None
    if no chunk does).

    A chunk's token times (``step >= 0``) and its tokens' deadlines
    (``tbt >= 0``) are both non-decreasing, and float rounding keeps
    that order.  So a chunk whose last token meets its first token's
    deadline is all met, and one whose first token misses its last
    token's deadline is all missed; only a chunk straddling a deadline,
    or one with ``step < 0``, is counted token by token.
    """
    # ``n`` stays a float from a stretch: the counts are whole numbers,
    # exact in a double, so every product and comparison is the one an
    # int count gives.
    met = index = 0
    last = -math.inf
    decrease = None
    bracket = tbt >= 0.0
    for run in runs:
        chunks = run_chunks(run)
        for k in range(0, len(chunks), 3):
            start = chunks[k]
            step = chunks[k + 1]
            n = chunks[k + 2]
            first = start + step
            if (step < 0.0 or first < last) and decrease is None:
                decrease = int(index)
            last = start + n * step
            if step < 0.0 or not bracket:
                met += _met_by_token(start, step, n, base, tbt, index)
            elif last <= base + tbt * index:
                met += n
            elif first <= base + tbt * (index + n - 1):
                met += _met_by_token(start, step, n, base, tbt, index)
            index += n
    return int(met), int(index), last, decrease


def _met_by_token(
    start: float, step: float, n: float, base: float, tbt: float, index: float
) -> int:
    """Met tokens of the chunk ``(start, step, n)`` whose first token is
    token ``index``, compared one token at a time."""
    met = 0
    for i in range(int(n)):
        if start + (i + 1) * step <= base + tbt * (index + i):
            met += 1
    return met


class _Books:
    """One allocator's live blocks and who owns them, kept by the checker."""

    __slots__ = ("live", "requests", "sources", "moving")

    def __init__(self, live: int, requests: int, sources: int, moving: int):
        self.live = live
        self.requests = requests
        self.sources = sources
        self.moving = moving


class _WatchedRuns(list):
    """An admitted request's token runs: each appended run is checked
    chunk by chunk (I2).

    ``commit_stretch`` appends one stretch per request and
    ``record_tokens`` extends by one bare float per token.  The list
    keeps its own token count
    and last token time, so it holds no reference back to its request
    (which would make every request a reference cycle, freed only by
    the cyclic collector).
    """

    __slots__ = (
        "checker", "env", "request_id", "arrival", "output_tokens", "tokens", "last"
    )

    def __init__(self, checker: "InvariantChecker", request) -> None:
        list.__init__(self, request.runs)
        self.checker = checker
        self.env = checker.env
        self.request_id = request.request_id
        self.arrival = request.arrival
        self.output_tokens = request.output_tokens
        self.tokens = sum(1 if type(run) is float else run.tokens for run in self)
        self.last = request.last_token_time if self else request.arrival

    def append(self, run) -> None:
        chunks = run_chunks(run)
        limit = self.env.now + 1e-9
        output = self.output_tokens
        tokens = self.tokens
        last = self.last
        for k in range(0, len(chunks), 3):
            start = chunks[k]
            step = chunks[k + 1]
            n = chunks[k + 2]  # a whole number, exact as a float
            end = start + n * step
            tokens += n
            if step < 0 or start + step < last or end > limit or tokens > output:
                self.tokens = int(tokens)
                self.last = last
                self.checker._flag_run(self, (start, step, int(n)))
            last = end
        self.tokens = int(tokens)
        self.last = last
        list.append(self, run)

    def extend(self, runs: Iterable) -> None:
        for run in runs:
            self.append(run)

    def clear(self) -> None:
        list.clear(self)
        self.tokens = 0
        self.last = self.arrival


class InvariantChecker:
    """Per-transition and full-sweep verifier for one serving system."""

    def __init__(self, system):
        self.system = system
        self.env = system.env
        self.violations: list[Violation] = []
        #: Full sweeps run (:meth:`check_now`).
        self.checks_run = 0
        self._slo = system.slo
        #: Per-allocator ownership books, set by :meth:`arm`.
        self._books: dict[object, _Books] = {}
        self._armed = False
        # Handoffs in progress: a handoff's inner operations (an
        # allocator free, a move-list add) leave the books mid-update,
        # so only the outermost one checks them.
        self._depth = 0

    # -- driver -------------------------------------------------------------
    def arm(self) -> None:
        """Install the per-transition checks on the system; idempotent.

        ``replay`` calls it before the clock starts.  The books start
        from a recount of the current state, so a run that allocated
        before arming is reconciled too.
        """
        if self._armed:
            return
        self._armed = True
        engines = self._engines()
        owners = self._owners(engines)
        for allocator in self._allocators(engines):
            requests, sources, moving = owners.get(allocator, (0, 0, 0))
            books = self._books[allocator] = _Books(
                allocator.blocks_allocated - allocator.blocks_freed,
                requests, sources, moving,
            )
            self._watch_allocator(allocator, books)
        for engine in engines:
            self._watch_manager(engine.kv)
        for move_list in self._move_lists(engines):
            self._watch_move_list(move_list)
        proxy = getattr(self.system, "proxy", None)
        if proxy is not None:
            for request in proxy.live.values():
                request.runs = _WatchedRuns(self, request)
            admit = proxy.admit

            def admit_watched(request) -> None:
                request.runs = _WatchedRuns(self, request)
                admit(request)

            proxy.admit = admit_watched
        fail = getattr(self.system, "fail_instance", None)
        if fail is not None:

            def fail_checked(name: str) -> None:
                fail(name)
                self._check_dead_instances()

            self.system.fail_instance = fail_checked

    def check_now(self) -> list[Violation]:
        """Sweep every invariant once; returns violations found this pass.

        Every live run on the clock settles first, so the sweep sees the
        tokens and KV growth of each decode chunk that has ended.
        """
        self.env.settle_runs()
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

    # -- I1 at each transition -------------------------------------------------
    def _watch_allocator(self, allocator, books: _Books) -> None:
        alloc, grow, free = allocator.alloc, allocator.grow, allocator.free
        slabs = allocator._slabs
        region = allocator.slab_count
        slab_bytes = allocator.slab_bytes

        def consistent(runs: list, first: int) -> bool:
            """The slabs of ``runs[first:]`` and the O(1) identities."""
            for index, _ in runs[first:] if first else runs:
                slab = slabs[index]
                rec = slab._rec
                used = slab.used_count
                if used if rec is None else not 0 < used <= rec.per_slab:
                    return False
            held = allocator._held_bytes
            free = len(allocator._free_slabs) + allocator._unused
            return (
                held == (region - free) * slab_bytes
                and allocator.peak_held_bytes >= held
                and allocator.blocks_allocated - allocator.blocks_freed == books.live
            )

        def checked_alloc(shape, block_bytes: int, count: int = 1):
            extent = alloc(shape, block_bytes, count)
            books.live += count
            if not consistent(extent.runs, 0):
                self._name_allocator_fault(allocator, books)
            return extent

        def checked_grow(extent, count: int) -> None:
            runs = extent.runs
            first = len(runs) - 1
            grow(extent, count)
            # Only a request's handle grows (RequestKv.grow), so the
            # owners still add up.
            books.live += count
            books.requests += count
            if not consistent(runs, first):
                self._name_allocator_fault(allocator, books)

        def checked_free(extent) -> None:
            free(extent)
            books.live -= extent.blocks
            if not consistent(extent.runs, 0):
                self._name_allocator_fault(allocator, books)

        allocator.alloc = checked_alloc
        allocator.grow = checked_grow
        allocator.free = checked_free

    def _watch_manager(self, manager) -> None:
        books_of = self._books
        caches = [
            (cache, books_of[cache]) for cache in (manager.gpu_cache, manager.cpu_cache)
        ]
        sources = manager.inflight_sources
        for name in ("alloc_gpu", "free_gpu", "swap_out", "swap_in", "abort_request"):
            setattr(manager, name, self._handoff(getattr(manager, name), caches, sources))
        release = manager._release_source

        def checked_release(extent) -> None:
            self._depth += 1
            try:
                release(extent)
            finally:
                self._depth -= 1
            books_of[extent.owner].sources -= extent.blocks
            if not self._depth:
                self._balance(caches)

        manager._release_source = checked_release

    def _handoff(self, op: Callable, caches: list, sources: list) -> Callable:
        """Wrap a ``KvTransferManager`` operation on one request's KV:
        the handle's holdings before and after, and any swap-out source
        it hands over, feed the books."""
        books_of = self._books

        def checked(kv):
            gpu, cpu = kv.gpu_blocks, kv.cpu_blocks
            gpu_blocks = 0 if gpu is None else gpu.blocks
            cpu_blocks = 0 if cpu is None else cpu.blocks
            handed = len(sources)
            self._depth += 1
            try:
                result = op(kv)
            finally:
                self._depth -= 1
            if gpu is not None:
                books_of[gpu.owner].requests -= gpu_blocks
            if cpu is not None:
                books_of[cpu.owner].requests -= cpu_blocks
            gpu, cpu = kv.gpu_blocks, kv.cpu_blocks
            if gpu is not None:
                books_of[gpu.owner].requests += gpu.blocks
            if cpu is not None:
                books_of[cpu.owner].requests += cpu.blocks
            for extent in sources[handed:]:
                books_of[extent.owner].sources += extent.blocks
            if not self._depth:
                self._balance(caches)
            return result

        return checked

    def _watch_move_list(self, move_list) -> None:
        books_of = self._books
        add, reclaim = move_list.add, move_list.reclaim

        def checked_add(blocks, event, grid=None) -> None:
            self._depth += 1
            try:
                add(blocks, event, grid)
            finally:
                self._depth -= 1
            books = books_of[blocks.owner]
            books.moving += blocks.blocks
            if not self._depth:
                self._balance([(blocks.owner, books)])

        def checked_reclaim(cpu_cache) -> int:
            self._depth += 1
            try:
                freed = reclaim(cpu_cache)
            finally:
                self._depth -= 1
            books = books_of[cpu_cache]
            books.moving -= freed
            if not self._depth:
                self._balance([(cpu_cache, books)])
            return freed

        move_list.add = checked_add
        move_list.reclaim = checked_reclaim

    def _balance(self, watched: list) -> None:
        """The owners of each ``(allocator, books)`` add up to its live blocks."""
        for allocator, books in watched:
            if books.requests + books.sources + books.moving != books.live:
                self._flag_owners(
                    allocator, books.live, books.requests, books.sources, books.moving
                )

    def _flag_owners(
        self, allocator, live: int, requests: int, sources: int, moving: int
    ) -> None:
        self._flag(
            "kv-conservation",
            f"{allocator.name}: {live} blocks live, owned {requests} by "
            f"requests + {sources} by in-flight swap-out sources + {moving} "
            "by move lists",
        )

    def _name_allocator_fault(self, allocator, books: _Books) -> None:
        """An operation left ``allocator`` inconsistent: walk it to say how."""
        before = len(self.violations)
        self._check_allocator(allocator)
        if allocator.blocks_allocated - allocator.blocks_freed != books.live:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: allocated {allocator.blocks_allocated} - "
                f"freed {allocator.blocks_freed} != {books.live} blocks the "
                "checker saw allocated and not freed",
            )
        if len(self.violations) == before:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: a slab the last operation touched is "
                "inconsistent",
            )

    # -- I1 sweep ---------------------------------------------------------------
    def _check_kv_conservation(self) -> None:
        engines = self._engines()
        owners = self._owners(engines)
        for allocator in self._allocators(engines):
            used = self._check_allocator(allocator)
            requests, sources, moving = owners.get(allocator, (0, 0, 0))
            if requests + sources + moving != used:
                self._flag_owners(allocator, used, requests, sources, moving)

    def _owners(self, engines: list) -> dict:
        """Blocks per allocator, recounted from the state: (held by
        live requests, by in-flight swap-out sources, by move lists).

        Counting, not per-block identity: a double-owned block makes the
        owners exceed the allocator's live count, so the exact equation
        catches leaks and double ownership at O(requests) per sweep.
        """
        counts: dict[object, list[int]] = {}

        def add(extent, slot: int) -> None:
            counts.setdefault(extent.owner, [0, 0, 0])[slot] += len(extent)

        for request in self._requests():
            kv = request.kv
            if kv is None:
                continue
            for extent in (kv.gpu_blocks, kv.cpu_blocks):
                if extent is not None:
                    add(extent, 0)
        for engine in engines:
            for extent in engine.kv.inflight_sources:
                add(extent, 1)
        for move_list in self._move_lists(engines):
            for extent, _ in move_list.entries:
                add(extent, 2)
        return {allocator: tuple(slots) for allocator, slots in counts.items()}

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
    def _flag_run(self, runs: _WatchedRuns, run: tuple) -> None:
        """Name what is wrong with ``run``, a chunk ``(start, step, n)``
        about to be appended to ``runs``."""
        start, step, n = run
        rid = runs.request_id
        if step < 0 or start + step < runs.last:
            self._flag(
                "token-monotonicity",
                f"request {rid} timestamps decrease: run {run!r} after a "
                f"token at {runs.last!r}",
            )
        end = start + n * step
        if end > self.env.now + 1e-9:
            self._flag(
                "token-monotonicity",
                f"request {rid} token in the future ({end:.3f} > {self.env.now:.3f})",
            )
        if runs.tokens > runs.output_tokens:
            self._flag(
                "token-monotonicity",
                f"request {rid} generated {runs.tokens} tokens of {runs.output_tokens}",
            )

    def _check_tokens(self) -> None:
        now = self.env.now
        for request in self._requests():
            met = self._check_request_tokens(request, now)
            if request.met_tokens != met:
                self._flag_met(request, met)

    def _check_request_tokens(self, request, now: float) -> int:
        """Walk ``request``'s token runs; returns how many of its tokens
        met their deadlines under the system's SLO."""
        runs = request.runs
        count = request.generated_tokens
        if count > request.output_tokens:
            self._flag(
                "token-monotonicity",
                f"request {request.request_id} generated {count} "
                f"tokens of {request.output_tokens}",
            )
        # Token k is due at arrival + TTFT + k * TBT, the system's SLO
        # (the same float expression as the commits' deadlines).
        met, tokens, last, decrease = _walk_runs(
            runs, request.arrival + self._slo.ttft, self._slo.tbt
        )
        if runs:
            if request.first_token_time < request.arrival:
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} token before arrival",
                )
            # A chunk with ``step >= 0`` whose first token is not before
            # the previous chunk's last is non-decreasing throughout.
            if decrease is not None:
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} timestamps decrease "
                    f"in the run from index {decrease}",
                )
            if last > now + 1e-9:
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} token in the future "
                    f"({last:.3f} > {now:.3f})",
                )
        if tokens != count:
            self._flag(
                "token-monotonicity",
                f"request {request.request_id} runs hold {tokens} tokens, "
                f"generated_tokens says {count}",
            )
        return met

    def _flag_met(self, request, met: int) -> None:
        self._flag(
            "slo-accounting",
            f"request {request.request_id} counts {request.met_tokens} "
            f"met tokens, its token stream has {met}",
        )

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
    def _check_accounting(self, disposing=None) -> None:
        """The O(1) counter identities; ``disposing`` is a request being
        disposed of, already terminal in the registry but still in the
        proxy's in-flight map."""
        system = self.system
        registry = getattr(system, "registry", None)
        proxy = getattr(system, "proxy", None)
        if registry is None or proxy is None:
            return
        live = len(proxy.live)
        if disposing is not None and disposing.request_id in proxy.live:
            live -= 1
        if live != registry.in_flight:
            self._flag(
                "slo-accounting",
                f"proxy tracks {live} live requests, registry "
                f"arithmetic says {registry.in_flight} in flight",
            )
        if registry.in_flight < 0:
            self._flag(
                "slo-accounting", f"negative in-flight: {registry.in_flight}"
            )

    def vet_terminal(self, request) -> None:
        """Per-request vetting at disposal time.

        Each request is checked once, right before the system drops it
        from the in-flight map: its KV handle must hold no live extent
        (I1: its blocks went back to their cache or a move list before
        disposal, so a leak is named at the request that caused it),
        its token stream gets a full I2 walk, a FINISHED request must
        be complete, its committed met-token count must equal the
        bracketed recount, and the proxy's in-flight map must agree
        with the registry's counters (I4).
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
            self._flag_met(request, met)
        self._check_accounting(request)

    # -- access helpers -------------------------------------------------------
    def _engines(self) -> list:
        engines = getattr(self.system, "engines", None)
        return list(engines()) if callable(engines) else []

    @staticmethod
    def _allocators(engines: list) -> list:
        """Every engine's GPU cache and each distinct CPU cache."""
        allocators = {}
        for engine in engines:
            manager = engine.kv
            allocators.setdefault(id(manager.gpu_cache), manager.gpu_cache)
            allocators.setdefault(id(manager.cpu_cache), manager.cpu_cache)
        return list(allocators.values())

    @staticmethod
    def _move_lists(engines: list) -> list:
        """Each distinct move list (one may be shared by many engines)."""
        return list({id(engine.kv.move_list): engine.kv.move_list for engine in engines}.values())

    def _requests(self) -> Iterable:
        proxy = getattr(self.system, "proxy", None)
        return proxy.live.values() if proxy is not None else ()
