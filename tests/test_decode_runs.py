"""Decode runs against the per-chunk oracle.

``DecodeInstance._loop`` retires the chunks that follow one ready set
with one timeout (``DecodeRun``) and splits the run at the first chunk
end at or after ``now`` when a join, a pending member's KV arrival, a
``perf_factor`` change or an alloc could see a boundary; a failure
halts it.  ``tests/reference_decode.py`` keeps the per-chunk loop;
hypothesis drives both through the same programs on one hand-built
decode instance: an initial batch per model, joins (some of them
opening a batch of their own, each swapped in, so its KV arrives
mid-run), latency spikes, a GPU cache small enough that growth fails
and swaps requests out, an instance failure, and a deadline cut that
settles the live run as result collection does, with the engine traced
in half of them.  The runs land a stretch of chunks as one shared
record per request (``commit_stretch``), the reference a one-chunk
stretch per chunk (its ``commit_chunk``); expanded to ``(start, step,
n)`` chunks, both must commit the same token runs (by ``float.hex``),
the same met tokens,
``met_until`` and derived ``decode_exec_time`` (by ``float.hex``), the
same finishes and failures at the same instants, leave the GPU cache in
the same state slab for slab, and add the same ``busy_time`` and traced
``decode`` spans.  The differential also runs at a grain of one step
per chunk (``DECODE_CHUNK_STEPS = 1`` on both sides).  The steps the runs save must
match the identity in DESIGN.md ("Decode runs"):

    reference steps - run steps = chunks landed in runs - runs fired

where a run fires when its own or its handed timeout does (a halted
run's never does).  Hand-built cases pin a join exactly on a chunk
boundary (it counts as before it: the run ends there), a failure in the
middle of a run, and the one-token fix on every bundle.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DEFAULT_SLO, DecodeBatch, SloSpec, SystemSpec
from repro.core import instance as instance_module
from repro.core.instance import DecodeInstance, DecodeRun
from repro.engine import AegaeonEngine, EngineConfig
from repro.engine.request import Request, run_chunks
from repro.hardware import H800, Node
from repro.memory import HostModelCache, SlabAllocator
from repro.models import get_model, kv_shape
from repro.obs import ObsConfig, Observability
from repro.policy import available_bundles, get_bundle
from repro.sim import Environment
from repro.transfer import RequestKv
from repro.workload import Trace, TraceRequest

from . import reference_decode
from .test_core_instances import prefilled_request
from .test_serving_api import small_config

GiB = 1024**3
MiB = 1024**2
MODELS = ("Qwen-7B", "Yi-6B")

_when = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
_request = st.tuples(
    st.sampled_from(MODELS),
    st.integers(min_value=16, max_value=3000),
    st.integers(min_value=2, max_value=160),
)


@st.composite
def decode_programs(draw) -> dict:
    return {
        "initial": draw(st.lists(_request, min_size=1, max_size=4)),
        "joins": draw(st.lists(st.tuples(_when, _request), max_size=4)),
        "spikes": draw(st.lists(
            st.tuples(_when, st.floats(min_value=0.01, max_value=1.0),
                      st.sampled_from([1.5, 3.0])),
            max_size=2,
        )),
        "fail": draw(st.one_of(st.none(), _when)),
        "tiny": draw(st.booleans()),
        "traced": draw(st.booleans()),
        # Tight SLOs put deadlines inside chunks and stretches.
        "slo": draw(st.one_of(
            st.just(DEFAULT_SLO),
            st.builds(SloSpec, ttft=st.floats(0.05, 2.0), tbt=st.floats(0.004, 0.08)),
        )),
    }


def _chunks(request) -> list:
    """``request``'s token runs expanded to ``(start, step, n)`` chunks,
    the floats by ``float.hex``, each run read through ``run_chunks``."""
    chunks = []
    for run in request.runs:
        run = run_chunks(run)
        for k in range(0, len(run), 3):
            start, step, n = run[k : k + 3]
            chunks.append((start.hex(), step.hex(), int(n)))
    return chunks


class _Harness:
    """One program on one decode instance; collects the observable log."""

    def __init__(self, program: dict):
        env = self.env = Environment()
        self.obs = Observability(
            ObsConfig.full() if program["traced"] else ObsConfig.off(),
            clock=lambda: env.now,
        )
        node = Node(env, H800, gpu_count=1)
        cache = HostModelCache(640 * GiB)
        for name in MODELS:
            cache.insert(name, get_model(name).weight_bytes)
        # A 71 GiB weight buffer leaves about 1 GiB of GPU KV.
        buffer = (71 if program["tiny"] else 44) * GiB
        engine = self.engine = AegaeonEngine(
            env, node, node.gpus, cache, SlabAllocator(320 * GiB, 256 * MiB),
            config=EngineConfig(weight_buffer_bytes=buffer),
            pre_initialized=True, obs=self.obs,
        )
        self.log: list = []
        self.requests: list = []
        self.slo = program["slo"]
        self.instance = DecodeInstance(
            env, engine, self.slo,
            lambda r: self.log.append(("finished", r.request_id, env.now.hex())),
            on_failed=lambda r: self.log.append(("failed", r.request_id, env.now.hex())),
            obs=self.obs,
        )
        for request in program["initial"]:
            self.join(*request)
        for when, request in program["joins"]:
            self.at(when, lambda request=request: self.join(*request))
        for when, duration, factor in program["spikes"]:
            self.at(when, lambda factor=factor: self.spike(factor))
            self.at(when + duration, lambda factor=factor: self.spike(1 / factor))
        if program["fail"] is not None:
            self.at(program["fail"], self.fail)

    def at(self, when: float, action) -> None:
        env = self.env

        def act():
            yield env.timeout_at(when)
            action()

        env.process(act())

    def join(self, model: str, inp: int, out: int) -> None:
        """A prefilled request joins its model's batch, as the decode
        scheduler places it, or opens one."""
        instance = self.instance
        if instance.dead:
            return
        trace = TraceRequest(len(self.requests), model, self.env.now, inp, out)
        request = prefilled_request(
            self.env, self.engine, Request(trace, get_model(model), slo=self.slo)
        )
        self.requests.append(request)
        for batch in instance.work_list:
            if batch.spec.name == model and batch.has_room:
                batch.requests.append(request)
                break
        else:
            instance.work_list.append(DecodeBatch(
                spec=request.spec, requests=[request],
                max_size=instance.batch_capacity(request.spec),
            ))
        instance.kick()

    def spike(self, factor: float) -> None:
        self.engine.perf_factor *= factor

    def fail(self) -> None:
        orphans = self.instance.fail()
        self.log.append(("orphans", [r.request_id for r in orphans], self.env.now.hex()))

    def settle(self) -> None:
        """What result collection does to a live run."""
        self.env.settle_runs()
        self.obs.tracer.flush()

    def outcome(self) -> tuple:
        cache = self.engine.gpu_kv_cache
        rows = []
        for r in self.requests:
            kv = r.kv
            rows.append((
                r.request_id, r.phase.value, r.generated_tokens, r.met_tokens,
                r.met_until.hex(), r.decode_exec_time.hex(), _chunks(r),
                None if r.finish_time is None else r.finish_time.hex(),
                None if kv is None else (
                    kv.location, kv.tokens,
                    None if kv.gpu_blocks is None else list(kv.gpu_blocks.runs),
                ),
            ))
        slabs = (
            cache.blocks_allocated, cache.blocks_freed, cache.held_bytes,
            cache.peak_held_bytes, list(cache._free_slabs), cache._unused,
            [None if slab is None else slab.used_count for slab in cache._slabs],
        )
        spans = [
            (span.start.hex(), span.end.hex(), span.parent, span.track, span.args)
            for span in self.obs.tracer.spans if span.name == "decode"
        ]
        return rows, slabs, self.engine.busy_time.hex(), spans, self.log


class _RunTally:
    """Counts runs, the chunks they land, halts and splits that cut."""

    def __init__(self, monkeypatch):
        self.tally: Counter = Counter()
        tally = self.tally
        init, land, finish = DecodeRun.__init__, DecodeRun.land, DecodeRun.finish
        halt, hand = DecodeRun.halt, DecodeRun.hand

        def counted_init(run, *args):
            init(run, *args)
            tally["runs"] += 1
            tally["laid out"] += len(run.ends)

        def counted_land(run, first, stop):
            tally["landed"] += stop - first
            land(run, first, stop)

        def counted_finish(run):
            tally["finished"] += 1
            finish(run)

        def counted_halt(run):
            tally["halted"] += 1
            halt(run)

        def counted_hand(run, index):
            event = hand(run, index)
            tally["cut"] += event is not None
            return event

        monkeypatch.setattr(DecodeRun, "__init__", counted_init)
        monkeypatch.setattr(DecodeRun, "land", counted_land)
        monkeypatch.setattr(DecodeRun, "finish", counted_finish)
        monkeypatch.setattr(DecodeRun, "halt", counted_halt)
        monkeypatch.setattr(DecodeRun, "hand", counted_hand)

    def saved_steps(self) -> int:
        tally = self.tally
        return tally["landed"] - (tally["finished"] - tally["halted"])


def _reference(program: dict) -> _Harness:
    with reference_decode.per_chunk():
        harness = _Harness(program)
    harness.env.run()
    return harness


def _steps(env) -> int:
    return env.steps_executed + env.steps_inlined


def _differential(program: dict) -> None:
    """Run ``program`` on runs and on the per-chunk reference, to the end."""
    reference = _reference(program)
    with pytest.MonkeyPatch.context() as monkeypatch:
        tally = _RunTally(monkeypatch)
        harness = _Harness(program)
        harness.env.run()
    assert harness.outcome() == reference.outcome()
    assert harness.engine.gpu_kv_cache._run is None
    assert not harness.env.runs
    assert _steps(reference.env) - _steps(harness.env) == tally.saved_steps()


class TestDecodeRunDifferential:
    @settings(max_examples=60, deadline=None)
    @given(program=decode_programs())
    def test_runs_match_the_per_chunk_reference(self, program):
        _differential(program)

    @settings(max_examples=25, deadline=None)
    @given(program=decode_programs())
    def test_grain_one_matches_the_per_chunk_reference(self, program):
        # One step per chunk: the longest runs and stretches, and a
        # deadline crossed inside nearly every stretch that is late.
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(instance_module, "DECODE_CHUNK_STEPS", 1)
            monkeypatch.setattr(reference_decode, "DECODE_CHUNK_STEPS", 1)
            _differential(program)

    @settings(max_examples=40, deadline=None)
    @given(
        program=decode_programs(),
        cut=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    )
    def test_a_deadline_cut_matches_the_per_chunk_reference(self, program, cut):
        # A serve cut short settles its live runs before it collects:
        # what the run has landed by the cut is what the chain had, and
        # the run goes on as if nothing happened.
        with reference_decode.per_chunk():
            reference = _Harness(program)
        reference.env.run(until=cut)
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = _RunTally(monkeypatch)
            harness = _Harness(program)
            harness.env.run(until=cut)
            harness.settle()
            harness.settle()  # idempotent
            reference.obs.tracer.flush()
            assert harness.outcome() == reference.outcome()
            assert _steps(reference.env) - _steps(harness.env) == tally.saved_steps()
            reference.env.run()
            harness.env.run()
        assert harness.outcome() == reference.outcome()


def _boundaries(program: dict) -> list:
    """Chunk ends of the reference's traced decode spans."""
    reference = _reference(dict(program, traced=True))
    return [span.end for span in reference.obs.tracer.spans if span.name == "decode"]


_LONG = {
    "initial": [("Qwen-7B", 800, 150), ("Qwen-7B", 1200, 120)],
    "joins": [], "spikes": [], "fail": None, "tiny": False, "traced": True,
    "slo": DEFAULT_SLO,
}


class TestHandBuilt:
    def test_a_join_on_a_chunk_boundary_ends_the_run_there(self):
        # The join's event was scheduled before the chunk began, so the
        # per-chunk loop sees the joiner at that very boundary; the run
        # must end there too, not one chunk later.
        boundary = _boundaries(_LONG)[3]
        program = dict(_LONG, joins=[(boundary, ("Qwen-7B", 400, 60))])
        reference = _reference(program)
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = _RunTally(monkeypatch)
            harness = _Harness(program)
            harness.env.run()
        assert harness.outcome() == reference.outcome()
        assert tally.tally["cut"] >= 1
        assert _steps(reference.env) - _steps(harness.env) == tally.saved_steps()
        joiner = harness.requests[-1]
        assert joiner.arrival == boundary

    def test_a_failure_inside_a_run_halts_it(self):
        ends = _boundaries(_LONG)
        program = dict(_LONG, fail=(ends[4] + ends[5]) / 2)
        reference = _reference(program)
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = _RunTally(monkeypatch)
            harness = _Harness(program)
            harness.env.run()
        assert harness.outcome() == reference.outcome()
        assert tally.tally["halted"] == 1
        # The cut chunk's span ends at the failure, as the interrupted
        # loop's did.
        spans = harness.outcome()[3]
        assert spans[-1][1] == program["fail"].hex()

    def test_a_latency_spike_splits_a_run(self):
        ends = _boundaries(_LONG)
        program = dict(_LONG, spikes=[((ends[2] + ends[3]) / 2, 0.3, 3.0)])
        reference = _reference(program)
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = _RunTally(monkeypatch)
            harness = _Harness(program)
            harness.env.run()
        assert harness.outcome() == reference.outcome()
        assert tally.tally["cut"] >= 1
        assert _steps(reference.env) - _steps(harness.env) == tally.saved_steps()

    def test_a_foreign_free_lands_after_the_growth_before_it(self):
        # A request outside the batch holds one whole GPU slab and is
        # swapped out mid-run, after a chunk whose growth took a fresh
        # slab has ended: its copy's source free settles the run first,
        # so that growth lands before the free, as the per-chunk loop's
        # did.  Landed after it instead, the growth would take the
        # freed slab.
        def with_foreign(harness, when):
            manager = harness.engine.kv
            shape = kv_shape(get_model("Qwen-7B"))
            kv = RequestKv(request_id=-1, shape=shape, tokens=512)
            manager.alloc_gpu(kv)
            cache = harness.engine.gpu_kv_cache
            assert len(kv.gpu_blocks.runs) == 1 and kv.gpu_blocks.blocks == 32
            release = manager._release_source
            frees = []

            def released(blocks):
                frees.append((harness.env.now, cache._run is not None))
                release(blocks)

            manager._release_source = released
            harness.at(when, lambda: manager.swap_out(kv))
            return frees

        ends = _boundaries(_LONG)
        when = (ends[2] + ends[3]) / 2
        with reference_decode.per_chunk():
            reference = _Harness(_LONG)
        with_foreign(reference, when)
        harness = _Harness(_LONG)
        frees = with_foreign(harness, when)
        cut = ends[3] - 1e-6
        reference.env.run(until=cut)
        harness.env.run(until=cut)
        # The free landed inside a live run, before the chunk in flight
        # ended, with the fresh slab's growth already in.
        ((freed_at, live),) = frees
        assert live and ends[2] < freed_at < cut
        harness.settle()
        reference.obs.tracer.flush()
        extents = [row[-1][2] for row in harness.outcome()[0]]
        assert extents == [row[-1][2] for row in reference.outcome()[0]]
        assert harness.outcome() == reference.outcome()
        reference.env.run()
        harness.env.run()
        assert harness.outcome() == reference.outcome()


@pytest.mark.parametrize("bundle", sorted(available_bundles()))
def test_a_one_token_request_finishes_at_prefill(bundle, monkeypatch):
    # Its only token comes from prefill: it must not decode a second.
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    model = get_model("Qwen-7B")
    trace = Trace([TraceRequest(0, model.name, 0.0, 100, 1)], [model], horizon=10.0)
    name = get_bundle(bundle).system
    spec = SystemSpec(system=name, config=small_config(name), policies=bundle)
    system = spec.build(Environment())
    result = system.serve(trace)
    assert result.drained
    (request,) = result.requests
    assert request.generated_tokens == 1
    assert list(request.token_times) == [request.prefill_end]
    assert request.finish_time == request.prefill_end
    checker = system.invariant_checker
    assert checker is not None and checker.violations == []
