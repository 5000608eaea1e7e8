"""Run-length weight loads against the per-chunk oracle.

``QuickLoader.load`` and ``QuickLoader.prefetch`` retire an uncontended
stretch of chunk stalls and copies with one timeout (``LoadRun``), and
split it at ``now`` when a claim, a throttle or restore, or an interrupt
could observe a chunk boundary.  ``tests/reference_loader.py`` keeps the
per-chunk paths; hypothesis drives both through the same programs of
synchronous loads (some interrupted, some claiming the link again the
moment they return), prefetches on stream lanes, foreign claims
(``Link.transfer`` processes and copies on other streams) and
throttle/restore pairs on one link, with the lanes traced in half of
them.  Both must grant foreign claims in the same order at the same
instants, end them at the same instants, land the same bytes, busy
time and stream spans, and complete the same loads, records and
unpins at the same instants.  The steps the runs save must match the
identity in DESIGN.md ("Run-length weight loads").  A second property
settles every live run (``env.settle_runs()``, as serve collection
does) at random cuts and requires what a reader sees there to match
the chain.

Every foreign action sits on a quarter-second grid and every load start
on its own offset from it, while chunk times are sums of stalls and
copies of 997 B/s (plus 5 us latency): no chunk boundary lands on an
instant where something else could observe it, so no tie can occur.
The harness asserts exactly that.  Ties follow the run's own rule: a
claim, throttle, restore or interrupt exactly on a chunk boundary counts
as after it; the hand-built cases below pin it.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import pcie_pair
from repro.memory import HostModelCache
from repro.obs import ObsConfig, Observability
from repro.sim import Environment, Event, Interrupt
from repro.transfer import CudaStream, QuickLoader
from repro.transfer.loader import LoadRun

from . import reference_loader

BANDWIDTH = 997.0
BETA = 0.7
CHUNK = 1000
TICK = 0.25
# Each loader starts its loads this far off the grid, so two loads
# never start, and so never stall, in step.
SYNC_OFFSETS = (TICK / 8, 3 * TICK / 8)
LANE_OFFSETS = (TICK / 16, 5 * TICK / 16)

_ticks = st.integers(min_value=0, max_value=32)


@st.composite
def load_programs(draw) -> dict:
    loaders = draw(st.integers(min_value=1, max_value=2))
    return {
        "sync": [
            draw(st.lists(
                st.tuples(
                    _ticks,
                    st.integers(min_value=1, max_value=4500),
                    st.one_of(st.none(), st.integers(min_value=1, max_value=1500)),
                ),
                min_size=1, max_size=3,
            ))
            for _ in range(loaders)
        ],
        "lanes": draw(st.lists(
            st.lists(
                st.tuples(_ticks, st.integers(min_value=1, max_value=3500)),
                min_size=1, max_size=3,
            ),
            max_size=2,
        )),
        "transfers": draw(st.lists(
            st.tuples(_ticks, st.integers(min_value=1, max_value=2500)),
            max_size=4,
        )),
        "copies": draw(st.lists(
            st.tuples(
                _ticks,
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=1, max_value=2500),
            ),
            max_size=4,
        )),
        "throttles": draw(st.lists(
            st.tuples(_ticks, st.integers(min_value=1, max_value=12),
                      st.sampled_from([2.0, 4.0])),
            max_size=3,
        )),
        "traced": draw(st.booleans()),
        "interrupts": draw(st.lists(
            st.tuples(
                _ticks,
                st.integers(min_value=0, max_value=loaders - 1),
                st.one_of(st.none(), st.integers(min_value=1, max_value=1500)),
            ),
            max_size=3,
        )),
    }


class _Harness:
    """One program on one link; collects the observable log."""

    def __init__(self, program: dict):
        env = self.env = Environment()
        duplex = pcie_pair(env, BANDWIDTH)
        h2d = self.h2d = duplex.h2d
        cache = self.cache = HostModelCache(capacity_bytes=10**9)
        self.log: list = []
        self.actions: list = []  # (instant, actor) of everything a run must see
        self.labels: dict = {}  # process -> foreign claimant label
        self.grants: dict = {}  # queued grant -> label
        self.loaders = [
            QuickLoader(env, duplex, cache, stage_buffer_bytes=2 * CHUNK, beta=BETA)
            for _ in program["sync"]
        ]
        self.prefetcher = QuickLoader(
            env, duplex, cache, stage_buffer_bytes=2 * CHUNK, beta=BETA
        )
        obs = self.obs = Observability(
            ObsConfig.full() if program["traced"] else ObsConfig(), clock=lambda: env.now
        )
        self.lanes = [
            CudaStream(env, name=f"lane{i}", obs=obs) for i in range(len(program["lanes"]))
        ]
        self.foreign = [CudaStream(env, name=f"foreign{i}") for i in range(2)]
        self.records: list = []
        self.loading: list = [False] * len(program["sync"])
        self.processes: list = []

        acquire, release = h2d.acquire, h2d.release
        unpin = cache.unpin

        def logged_acquire():
            actor = env.active_process
            self.actions.append((env.now, actor))
            grant = acquire()
            label = self._label(actor)
            if label is not None:
                if grant is None:
                    self.log.append((env.now, "start", label))
                else:
                    self.grants[grant] = label
            return grant

        def logged_release():
            if h2d._grants:
                label = self.grants.pop(h2d._grants[0], None)
                if label is not None:
                    self.log.append((env.now, "start", label))
            release()

        def logged_unpin(model):
            self.log.append((env.now, "unpin", model))
            unpin(model)

        h2d.acquire, h2d.release, cache.unpin = logged_acquire, logged_release, logged_unpin

        for i, loads in enumerate(program["sync"]):
            self.processes.append(env.process(self._sync(i, loads)))
        for i, prefetches in enumerate(program["lanes"]):
            env.process(self._lane(i, prefetches))
        for i, (tick, nbytes) in enumerate(program["transfers"]):
            env.process(self._transfer(f"transfer{i}", tick * TICK, nbytes))
        for i, (tick, lane, nbytes) in enumerate(program["copies"]):
            env.process(self._copy(f"copy{i}", tick * TICK, lane, nbytes))
        for tick, ticks, factor in program["throttles"]:
            env.process(self._throttle(tick * TICK, ticks * TICK, factor))
        for j, (tick, i, claim) in enumerate(program["interrupts"]):
            env.process(self._interrupt(f"interrupt{j}", tick * TICK, i, claim))

    def _label(self, actor):
        label = self.labels.get(actor)
        if label is None and actor is not None:
            stream = getattr(actor, "_stream", None)
            if stream is not None and stream.name.startswith("foreign"):
                label = stream.name
        return label

    # -- actors -----------------------------------------------------------------
    def _sync(self, i: int, loads: list):
        env, loader = self.env, self.loaders[i]
        for k, (tick, nbytes, reclaim) in enumerate(loads):
            at = tick * TICK + SYNC_OFFSETS[i]
            if at > env.now:
                yield env.timeout_at(at)
            model = f"sync{i}.{k}"
            self.cache.insert(model, nbytes)
            self.loading[i] = True
            try:
                yield from loader.load(model, nbytes)
            except Interrupt:
                self.log.append((env.now, "interrupted", model))
                continue
            finally:
                self.loading[i] = False
            self.log.append((env.now, "loaded", model))
            if reclaim is not None:
                # Claim the link again at the instant the load returns.
                label = f"reclaim{i}.{k}"
                self.labels[env.active_process] = label
                yield from self.h2d.transfer(reclaim)
                del self.labels[env.active_process]
                self.log.append((env.now, "end", label))

    def _lane(self, i: int, prefetches: list):
        env, stream = self.env, self.lanes[i]
        for k, (tick, nbytes) in enumerate(prefetches):
            at = tick * TICK + LANE_OFFSETS[i]
            if at > env.now:
                yield env.timeout_at(at)
            model = f"lane{i}.{k}"
            self.cache.insert(model, nbytes)
            self.records.append(self.prefetcher.prefetch(model, nbytes, stream))

    def _transfer(self, label: str, at: float, nbytes: int):
        env = self.env
        yield env.timeout(at)
        self.labels[env.active_process] = label
        yield from self.h2d.transfer(nbytes)
        self.log.append((env.now, "end", label))

    def _copy(self, label: str, at: float, lane: int, nbytes: int):
        env = self.env
        yield env.timeout(at)
        self.foreign[lane].copy(
            self.h2d, nbytes, on_done=lambda: self.log.append((env.now, "end", label))
        )

    def _throttle(self, at: float, duration: float, factor: float):
        env = self.env
        yield env.timeout(at)
        self.actions.append((env.now, env.active_process))
        self.h2d.throttle(factor)
        yield env.timeout(duration)
        self.actions.append((env.now, env.active_process))
        self.h2d.restore(factor)

    def _interrupt(self, label: str, at: float, i: int, claim):
        env = self.env
        yield env.timeout(at)
        process = self.processes[i]
        if not (self.loading[i] and process.is_alive and process.target is not None):
            return
        self.actions.append((env.now, env.active_process))
        process.interrupt("instance failure")
        self.log.append((env.now, "interrupt", label))
        if claim is not None:
            # Claims the link before the interrupt is delivered.
            self.labels[env.active_process] = label
            yield from self.h2d.transfer(claim)
            self.log.append((env.now, "end", label))

    # -- results ------------------------------------------------------------------
    def cut(self) -> tuple:
        """What a reader sees mid-run, without claiming the link."""
        return (
            self.log,
            self.h2d.bytes_moved,
            self.h2d.busy_time,
            [(s.ops_executed, s.pending_ops) for s in self.lanes + self.foreign],
            Counter(
                (span.name, span.track, span.start, span.end, span.args.get("nbytes"))
                for span in self.obs.tracer.spans
            ),
        )

    def outcome(self) -> tuple:
        h2d = self.h2d
        return (
            self.log,
            [record.completed_at for record in self.records],
            h2d.bytes_moved,
            h2d.busy_time,
            h2d.acquire() is None,
            [(s.ops_executed, s.pending_ops) for s in self.lanes + self.foreign],
            [loader.loads for loader in self.loaders] + [self.prefetcher.loads],
            sorted((m, e.pins) for m, e in self.cache._entries.items()),
            # Runs land a chunk's spans when they end or split, so only
            # the multiset of spans is the lane's to keep.
            Counter(
                (span.name, span.track, span.start, span.end, span.args.get("nbytes"))
                for span in self.obs.tracer.spans
            ),
        )


def _run_reference(program: dict):
    with reference_loader.per_chunk():
        harness = _Harness(program)
        harness.env.run()
    return harness


class _RunTally:
    """Counts what the runs retire, and the boundaries each run could tie on."""

    def __init__(self, monkeypatch):
        self.runs: dict = {}  # run -> (owner, its boundary instants)
        self.tally: Counter = Counter()
        init, split, finish = LoadRun.__init__, LoadRun.split, LoadRun.finish

        def tallied_init(run, link, chunks, first, owner=None):
            init(run, link, chunks, first, owner)
            self.runs[run] = (link.env.active_process, set(run.ends))

        def tallied_split(run):
            kind = "lane" if run.owner is not None else "sync"
            now = run.link.env.now
            landed, in_copy = 0, False
            bounds = self.runs[run][1]
            ends = run.ends
            # Each chunk not wholly landed: its stall's and copy's ends.
            for op in range(run.landed & ~1, len(ends), 2):
                stall_end, copy_end = ends[op], ends[op + 1]
                if copy_end > now:
                    in_copy = now >= stall_end
                    # Only the op handed over still ends where the run
                    # said; later chunks go op by op from then on.
                    bounds.difference_update(
                        bound for bound in list(bounds)
                        if bound > (copy_end if in_copy else stall_end)
                    )
                    break
                landed += 1
            else:
                self.tally[f"fired {kind}"] += 1
            self.tally[f"retired {kind}"] += 2 * landed + in_copy
            split(run)

        def tallied_finish(run):
            if run in run.env.runs:
                kind = "lane" if run.owner is not None else "sync"
                self.tally[f"fired {kind}"] += 1
                # Every op of the chunks not wholly landed.
                unlanded = run.chunks[0] - run.base - (run.landed >> 1)
                self.tally[f"retired {kind}"] += 2 * unlanded
            finish(run)

        monkeypatch.setattr(LoadRun, "__init__", tallied_init)
        monkeypatch.setattr(LoadRun, "split", tallied_split)
        monkeypatch.setattr(LoadRun, "finish", tallied_finish)

    def saved_steps(self) -> int:
        tally = self.tally
        return (
            tally["retired sync"] - tally["fired sync"]
            + 2 * (tally["retired lane"] - tally["fired lane"])
        )

    def ties(self, actions: list) -> list:
        return [
            (instant, actor)
            for instant, actor in actions
            for owner, bounds in self.runs.values()
            if actor is not owner and instant in bounds
        ]


class TestLoadRunDifferential:
    @settings(max_examples=150, deadline=None)
    @given(program=load_programs())
    def test_runs_match_the_per_chunk_reference(self, program):
        reference = _run_reference(program)
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = _RunTally(monkeypatch)
            harness = _Harness(program)
            harness.env.run()
        assert tally.ties(harness.actions) == []
        assert harness.outcome() == reference.outcome()
        ref_env, env = reference.env, harness.env
        assert ref_env.steps_executed + ref_env.steps_inlined - (
            env.steps_executed + env.steps_inlined
        ) == tally.saved_steps()

    @settings(max_examples=100, deadline=None)
    @given(
        program=load_programs(),
        cuts=st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                      max_size=8, unique=True),
    )
    def test_settled_cuts_match_the_per_chunk_reference(self, program, cuts):
        # A serve cut short settles its runs before it collects: at
        # each cut, what the runs have landed must be what the chain had
        # landed, and the runs must go on as if nothing happened.
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = _RunTally(monkeypatch)
            harness = _Harness(program)
            with reference_loader.per_chunk():
                reference = _Harness(program)
            for cut in sorted(cuts):
                until = (cut + 0.5) * TICK
                with reference_loader.per_chunk():
                    reference.env.run(until=until)
                harness.env.run(until=until)
                harness.env.settle_runs()
                harness.env.settle_runs()  # idempotent
                harness.actions.append((until, self))
                assert tally.ties(harness.actions) == []
                assert harness.cut() == reference.cut()
            with reference_loader.per_chunk():
                reference.env.run()
            harness.env.run()
        assert harness.outcome() == reference.outcome()


def _exact_loader(env):
    """A loader whose chunks stall 1 s and copy 1 s, exactly."""
    duplex = pcie_pair(env, 1000.0)
    duplex.h2d.latency = 0.0
    cache = HostModelCache(capacity_bytes=10**9)
    cache.insert("m", 3000)
    loader = QuickLoader(env, duplex, cache, stage_buffer_bytes=2000, beta=0.5)
    assert loader._stall_per_chunk() == 1.0
    assert duplex.h2d.transfer_time(loader.chunk_bytes) == 1.0
    return loader, duplex.h2d


def _at(env, when, action):
    def act():
        yield env.timeout_at(when)
        result = action()
        if isinstance(result, Event):
            yield result

    return env.process(act())


class TestTieRule:
    """A claim, throttle, restore or interrupt exactly on a chunk boundary
    counts as after it.  Three chunks from t = 0: chunk k stalls over
    [2k, 2k + 1] and copies over [2k + 1, 2k + 2]."""

    def test_a_claim_on_a_stall_end_queues_behind_the_copy(self):
        env = Environment()
        loader, h2d = _exact_loader(env)
        seen = []

        def claim():
            seen.append((h2d.acquire() is None, h2d.bytes_moved))

        _at(env, 1.0, claim)
        record = loader.prefetch("m", 3000, CudaStream(env))
        env.run(until=1.5)
        # Chunk 0's stall ended first: its copy holds the link.
        assert seen == [(False, 0)] and h2d.queue_depth == 1
        env.run(until=2.0)
        assert h2d.bytes_moved == 1000 and h2d.queue_depth == 0
        h2d.release()  # the claimant's turn, granted at 2.0, ends at once
        env.run()
        # Chunk 1 stalls over [2, 3]; its copy and chunk 2 run behind.
        assert record.completed_at == 6.0
        assert h2d.bytes_moved == 3000 and h2d.busy_time == 3.0

    def test_a_claim_on_a_copy_end_takes_the_free_link(self):
        env = Environment()
        loader, h2d = _exact_loader(env)
        seen = []

        def claim():
            seen.append((h2d.acquire() is None, h2d.bytes_moved))
            return env.timeout(0.5)

        process = _at(env, 2.0, claim)
        process.callbacks.append(lambda _: h2d.release())
        record = loader.prefetch("m", 3000, CudaStream(env))
        env.run()
        # Chunk 0 landed first; chunk 1's stall does not hold the link.
        assert seen == [(True, 1000)]
        assert record.completed_at == 6.0
        assert h2d.bytes_moved == 3000 and h2d.busy_time == 3.0

    def test_a_claim_on_a_synchronous_runs_end_finds_it_landed(self):
        env = Environment()
        loader, h2d = _exact_loader(env)
        seen = []

        def claim():
            seen.append((env.now, h2d.acquire() is None, h2d.bytes_moved))

        def load():
            yield from loader.load("m", 3000)
            seen.append((env.now, h2d.acquire() is None, h2d.bytes_moved))

        _at(env, 6.0, claim)
        env.process(load())
        env.run()
        # The claim lands after the last copy: the link is free for it,
        # and the loader that returns at the same instant queues behind.
        assert seen == [(6.0, True, 3000), (6.0, False, 3000)]
        assert h2d.busy_time == 3.0

    def test_a_throttle_on_a_stall_end_misses_that_copy(self):
        env = Environment()
        loader, h2d = _exact_loader(env)
        _at(env, 1.0, lambda: h2d.throttle(2.0))

        def load():
            yield from loader.load("m", 3000)
            return env.now

        # Chunk 0 copies at the old bandwidth; chunks 1 and 2 at half.
        assert env.run(until=env.process(load())) == 8.0
        assert h2d.busy_time == 5.0

    def test_a_restore_on_a_stall_end_misses_that_copy(self):
        env = Environment()
        loader, h2d = _exact_loader(env)
        h2d.throttle(2.0)
        # Throttled from the start, chunk k stalls over [4k, 4k + 2]
        # (the stall is sampled once per load) and copies over
        # [4k + 2, 4k + 4].
        _at(env, 6.0, lambda: h2d.restore(2.0))

        def load():
            yield from loader.load("m", 3000)
            return env.now

        # Chunk 1's copy started at 6.0, throttled; chunk 2's is not.
        assert env.run(until=env.process(load())) == 11.0
        assert h2d.busy_time == 5.0

    @pytest.mark.parametrize("when, held", [
        (1.0, True),  # a stall end: chunk 0's copy goes ahead
        (2.0, False),  # a copy end: chunk 0 landed, chunk 1 never starts
    ])
    def test_an_interrupt_on_a_boundary_lands_what_started(self, when, held):
        env = Environment()
        loader, h2d = _exact_loader(env)
        interrupted = []

        def load():
            try:
                yield from loader.load("m", 3000)
            except Interrupt:
                interrupted.append(env.now)

        process = env.process(load())
        _at(env, when, process.interrupt)
        env.run(until=1.5 + (when > 1.0))
        assert interrupted == [when]
        assert h2d._busy is held
        env.run()
        assert h2d.bytes_moved == 1000 and h2d.busy_time == 1.0
        assert h2d.acquire() is None


class TestSettle:
    """``env.settle_runs()`` lands what a run has finished by ``now`` and
    leaves it going.  The :func:`_exact_loader` chunks again: chunk k stalls
    over [2k, 2k + 1] and copies over [2k + 1, 2k + 2]."""

    @staticmethod
    def _prefetch(settle_at=(), claim_at=None):
        env = Environment()
        loader, h2d = _exact_loader(env)
        obs = Observability(ObsConfig.full(), clock=lambda: env.now)
        stream = CudaStream(env, name="lane", obs=obs)
        record = loader.prefetch("m", 3000, stream)
        if claim_at is not None:
            def claim():
                grant = h2d.acquire()
                if grant is not None:
                    yield grant
                yield env.timeout(0.5)
                h2d.release()

            _at(env, claim_at, lambda: env.process(claim()))
        seen = []
        for when in settle_at:
            env.run(until=when)
            env.settle_runs()
            seen.append((
                h2d.bytes_moved, h2d.busy_time, stream.ops_executed,
                stream.pending_ops, sorted((s.name, s.start, s.end) for s in obs.tracer.spans),
            ))
        env.run()
        spans = Counter((s.name, s.start, s.end, s.args.get("nbytes")) for s in obs.tracer.spans)
        return seen, (record.completed_at, h2d.bytes_moved, h2d.busy_time,
                      stream.ops_executed, stream.pending_ops, spans)

    def test_settle_lands_finished_chunks_and_a_finished_stall(self):
        # Ops are the three stalls, the three copies and the record.
        seen, final = self._prefetch(settle_at=(0.5, 1.5, 3.5, 3.5))
        assert seen[:3] == [
            (0, 0.0, 0, 7, []),  # chunk 0 stalling: nothing has finished
            (0, 0.0, 1, 6, [("compute", 0.0, 1.0)]),  # its copy in flight
            (1000, 1.0, 3, 4, [  # chunk 1's copy in flight
                ("compute", 0.0, 1.0), ("compute", 2.0, 3.0), ("copy", 1.0, 2.0),
            ]),
        ]
        assert seen[3] == seen[2]  # a second settle at one instant lands nothing
        with reference_loader.per_chunk():
            assert self._prefetch()[1] == final
        assert final[:5] == (6.0, 3000, 3.0, 7, 0)

    def test_settle_on_boundaries_counts_them_passed(self):
        # At a stall end the stall has landed; at a copy end the chunk.
        seen, final = self._prefetch(settle_at=(1.0, 2.0))
        assert [entry[:4] for entry in seen] == [(0, 0.0, 1, 6), (1000, 1.0, 2, 5)]
        assert final[:5] == (6.0, 3000, 3.0, 7, 0)

    @pytest.mark.parametrize("claim_at", [1.75, 2.25])
    def test_a_split_after_a_settle_lands_nothing_twice(self, claim_at):
        # Settled at 1.5 (chunk 0 copying) and claimed in its copy or in
        # chunk 1's stall: the spans, ops and counters are the chain's.
        _, final = self._prefetch(settle_at=(1.5,), claim_at=claim_at)
        with reference_loader.per_chunk():
            assert self._prefetch(claim_at=claim_at)[1] == final

    def test_a_synchronous_run_settles_its_counters(self):
        env = Environment()
        loader, h2d = _exact_loader(env)
        done = env.process(loader.load("m", 3000))
        env.run(until=3.5)
        assert h2d.bytes_moved == 0
        env.settle_runs()
        assert (h2d.bytes_moved, h2d.busy_time, h2d._busy) == (1000, 1.0, True)
        env.run(until=done)
        assert (env.now, h2d.bytes_moved, h2d.busy_time) == (6.0, 3000, 3.0)
        assert h2d.acquire() is None


class TestTracedServe:
    @pytest.mark.parametrize("until", [None, 8.0])
    def test_stream_spans_match_the_per_chunk_reference(self, monkeypatch, until):
        # Tracing keeps the runs: each chunk's stall and copy spans land
        # when its run ends or splits, with the chain's own times.  A
        # serve the deadline cuts short (8 s) settles its runs as it
        # collects, so the runs still live then land what they finished.
        from repro.core import AegaeonConfig, SystemSpec
        from repro.models import market_mix
        from repro.obs import ObsConfig
        from repro.workload import materialize_trace, sharegpt

        def serve():
            env = Environment()
            config = AegaeonConfig(
                prefill_instances=1, decode_instances=1, cluster="h800-pair",
                obs=ObsConfig.full(),
            )
            result = SystemSpec(config=config).build(env).serve(
                materialize_trace(market_mix(4), [1.0] * 4, sharegpt(), 10.0, seed=5),
                until=until,
            )
            spans = Counter(
                (span.name, span.track, span.start, span.end, span.args.get("nbytes"))
                for span in result.obs.tracer.spans
                if span.cat == "stream"
            )
            return spans, result.end_time, result.finished_requests, result.drained

        with reference_loader.per_chunk():
            reference = serve()
        assert reference[3] is (until is None)
        formed, settled = [], []
        init, settle = LoadRun.__init__, LoadRun.settle

        def counted(run, *args):
            init(run, *args)
            formed.append(run.owner is None)

        def watched(run):
            now = run.env.now
            # Copies ended by now, of the chunks not wholly landed.
            landed = sum(end <= now for end in run.ends[run.landed | 1::2])
            settle(run)
            settled.append((run.owner is None, landed, bool(run.landed & 1)))

        monkeypatch.setattr(LoadRun, "__init__", counted)
        monkeypatch.setattr(LoadRun, "settle", watched)
        assert serve() == reference
        assert False in formed and True in formed  # lane and synchronous runs
        if until is not None:
            # Both owners' runs were live at the deadline, with chunks
            # landed, and a lane's had its stall in flight landed too.
            assert {sync for sync, landed, _ in settled if landed} == {False, True}
            assert any(not sync and stalled for sync, _, stalled in settled)
