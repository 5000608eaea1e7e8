"""Met tokens are counted as they are committed (§2.1, Figure 3).

Every :class:`~repro.engine.request.Request` keeps ``met_tokens``, the
number of its generated tokens that met their deadlines, updated where
tokens are committed: :func:`~repro.engine.request.commit_stretch`
(every pool's decode chunks: a stretch of them per landing of Aegaeon's
decode runs, one per chunk in the baselines' loops) and
:meth:`Request.record_tokens` (first tokens).  ``core.slo.tokens_met`` recomputes the same
count from ``token_times`` with numpy and is the oracle here: the two
must agree exactly, request by request, on every serving system, under
faults that restart requests from prefill, and on single chunks built
to straddle a deadline.  A stretch must also leave ``met_tokens`` and
``met_until`` exactly as the reference's per-chunk commit
(``tests/reference_decode.py``) leaves them chunk by chunk.
"""

import pytest
from hypothesis import assume, given, strategies as st

from repro.chaos import FaultPlan, InstanceFailure, InvariantViolation
from repro.core import (
    AegaeonConfig,
    SloSpec,
    SystemConfig,
    SystemSpec,
    available_systems,
    tokens_met,
)
from repro.engine.request import Request, Stretch, commit_stretch
from repro.fleet import FleetConfig, ShardStats, build_fleet
from repro.models import get_model, market_mix
from repro.workload import TraceRequest, market_stream, materialize_trace, sharegpt

from .reference_decode import commit_chunk

#: Tight enough that every system misses some deadlines and many
#: requests straddle one, so both brackets and the per-token loop run.
SLO = SloSpec(ttft=3.0, tbt=0.03)


def recount(request, slo=SLO):
    return tokens_met(request.arrival, request.token_times, slo)[0]


def assert_counts_match(requests, stats):
    """Each request's count equals the oracle, and so do ``stats``' totals."""
    met = generated = 0
    for request in requests:
        assert request.met_tokens == recount(request), request
        assert request.generated_tokens == len(request.token_times)
        met += request.met_tokens
        generated += request.generated_tokens
    assert stats.tokens_met == met
    assert stats.tokens_generated == generated
    return met, generated


def system_config(name):
    if name == "aegaeon":
        return AegaeonConfig(
            prefill_instances=1, decode_instances=1, cluster="h800-pair", slo=SLO
        )
    return SystemConfig(cluster="h800-pair", slo=SLO)


def small_trace():
    return materialize_trace(
        market_mix(5), [0.25, 0.2, 0.15, 0.1, 0.05], sharegpt(), horizon=40.0, seed=13
    )


@pytest.mark.parametrize("name", available_systems())
def test_every_system_counts_what_the_fold_recomputes(name):
    spec = SystemSpec(system=name, config=system_config(name), invariants=True)
    result = spec.build().serve(small_trace())
    assert result.drained and result.requests
    stats = ShardStats()
    for request in result.requests:
        stats.fold(request)
    met, _ = assert_counts_match(result.requests, stats)
    expected = sum(r.output_tokens for r in result.requests)
    assert 0 < met < expected  # some tokens met, some missed
    assert result.slo_attainment == met / expected
    assert result.per_request_attainment().tolist() == [
        recount(r) / r.output_tokens for r in result.requests
    ]


def test_faulted_fleet_counts_survive_orphan_requeue(monkeypatch):
    # An instance failure orphans requests mid-decode; those whose KV
    # died with the device restart from prefill through reset_progress,
    # which must zero the count along with the token stream.
    reset_with_met = []
    reset_progress = Request.reset_progress

    def spy(request):
        if request.met_tokens:
            reset_with_met.append(request.request_id)
        reset_progress(request)

    monkeypatch.setattr(Request, "reset_progress", spy)
    config = AegaeonConfig(
        prefill_instances=1, decode_instances=3, cluster="h800-quad", slo=SLO
    )
    seeded = FaultPlan.seeded(seed=5, horizon=60.0, count=4)
    plan = FaultPlan.of(*seeded, InstanceFailure(at=12.0, instance="decode0"))
    spec = SystemSpec(config=config, faults=plan, invariants=True)
    fleet = build_fleet(FleetConfig(shards=3, spec=spec, retain_requests=True))
    result = fleet.run(market_stream(6, 60.0, seed=31, total_rate=2.0))
    assert result.drained and result.unaccounted == 0
    assert reset_with_met
    assert sum(shard.system.orphans_requeued for shard in fleet.shards) > 0
    for shard, stats in zip(fleet.shards, result.shard_stats):
        assert_counts_match(shard.system.proxy.requests, stats)
    total = result.rollup.total
    assert total.tokens_met == sum(s.tokens_met for s in result.shard_stats)


def test_corrupted_count_is_flagged_at_disposal():
    # The invariant checker recounts met tokens in its I2 walk; a count
    # that drifts from the token stream fails the serve.
    system = SystemSpec(
        system="aegaeon", config=system_config("aegaeon"), invariants=True
    ).build()
    corrupted = []

    def corrupt(request):
        if not corrupted:
            corrupted.append(request.request_id)
            request.met_tokens += 1

    system.request_sink = corrupt  # runs just before vet_terminal
    with pytest.raises(InvariantViolation, match="met tokens"):
        system.serve(small_trace())
    violations = system.invariant_checker.violations
    assert [v.invariant for v in violations] == ["slo-accounting"]
    assert f"request {corrupted[0]} counts" in violations[0].detail


def batch_request(request_id, arrival, slo, generated, steps, chunk_start, step):
    """A request that has generated ``generated`` tokens on a ``step``
    cadence ending just before ``chunk_start``, with room for a chunk."""
    trace = TraceRequest(
        request_id=request_id,
        model="Qwen-7B",
        arrival=arrival,
        input_tokens=16,
        output_tokens=generated + steps,
    )
    request = Request(trace=trace, spec=get_model("Qwen-7B"), slo=slo)
    request.record_tokens(
        [chunk_start - (generated - 1 - k) * step for k in range(generated)]
    )
    return request


class TestChunkCommit:
    """``commit_stretch`` on one-chunk stretches that straddle a
    deadline, the baselines' commit: the brackets must fall through to
    the per-token loop, and the count must equal the oracle's, whether
    the batch decodes faster or slower than TBT."""

    @pytest.mark.parametrize(
        "ratios",
        [st.floats(0.05, 0.95), st.floats(1.05, 4.0)],
        ids=["step-below-tbt", "step-above-tbt"],
    )
    @given(
        data=st.data(),
        ttft=st.floats(0.05, 20.0),
        tbt=st.floats(0.005, 0.5),
        arrival=st.floats(0.0, 5000.0),
        generated=st.integers(0, 40),
        steps=st.integers(2, 16),
    )
    def test_straddling_chunk_matches_tokens_met(
        self, ratios, data, ttft, tbt, arrival, generated, steps
    ):
        slo = SloSpec(ttft=ttft, tbt=tbt)
        step = tbt * data.draw(ratios, label="step/tbt")
        # Land the anchor request's token ``due`` of this chunk within a
        # step of its deadline, so the chunk's ends bracket a deadline.
        due = data.draw(st.integers(0, steps - 1), label="due")
        jitter = data.draw(st.floats(-1.0, 1.0), label="jitter") * step
        deadline = arrival + slo.ttft + slo.tbt * (generated + due)
        chunk_start = deadline - (due + 1) * step + jitter
        anchor = batch_request(0, arrival, slo, generated, steps, chunk_start, step)
        batch = [anchor]
        # Batch-mates arrive at other times and are at other tokens.
        for index in range(data.draw(st.integers(0, 3), label="mates")):
            offset = data.draw(st.floats(-1.0, 1.0), label="offset")
            batch.append(
                batch_request(
                    index + 1,
                    max(0.0, arrival + offset * steps * max(step, tbt)),
                    slo,
                    data.draw(st.integers(0, 40), label="generated"),
                    steps,
                    chunk_start,
                    step,
                )
            )
        commit_stretch(batch, Stretch((chunk_start, step, steps)))
        times = anchor.token_times[generated:]
        base = arrival + slo.ttft
        assume(times[-1] > base + tbt * generated)
        assume(times[0] <= base + tbt * (generated + steps - 1))
        for request in batch:
            assert request.met_tokens == recount(request, slo)
            assert request.generated_tokens == request.output_tokens
            assert request.token_times[-steps:] == times
        assert len({id(request.runs) for request in batch}) == len(batch)
        assert all(request.runs[-1] is anchor.runs[-1] for request in batch)


class TestStretchCommit:
    """``commit_stretch`` against the reference's ``commit_chunk``
    chunk by chunk: a schedule of back-to-back chunks around the TBT,
    landed in stretches cut at random, must leave each batch-mate's met
    tokens, ``met_until`` and token times bit-identical to its twin's."""

    @given(
        data=st.data(),
        ttft=st.floats(0.05, 5.0),
        tbt=st.floats(0.005, 0.5),
        arrival=st.floats(0.0, 50.0),
    )
    def test_stretches_match_their_chunks(self, data, ttft, tbt, arrival):
        slo = SloSpec(ttft=ttft, tbt=tbt)
        chunks = data.draw(st.lists(
            st.tuples(st.floats(0.05, 4.0), st.integers(1, 16)), min_size=1, max_size=12,
        ), label="chunks (step/tbt, steps)")
        start = arrival + data.draw(st.floats(0.0, 2.0), label="lag") * ttft
        layout = []
        for ratio, steps in chunks:
            step = ratio * tbt
            layout += (start, step, steps)
            start = start + steps * step
        total = sum(steps for _, steps in chunks)
        cuts = sorted(set(data.draw(
            st.lists(st.integers(1, len(chunks) - 1), max_size=4), label="cuts"
        ) if len(chunks) > 1 else []))
        bounds = [0, *cuts, len(chunks)]
        pairs = []
        for index in range(data.draw(st.integers(1, 3), label="mates")):
            generated = data.draw(st.integers(1, 20), label="generated")
            offset = data.draw(st.floats(0.0, 1.0), label="offset") * ttft
            twins = [
                batch_request(index, arrival + offset, slo, generated, total, layout[0], tbt)
                for _ in range(2)
            ]
            pairs.append(twins)
        for first, stop in zip(bounds, bounds[1:]):
            commit_stretch([pair[0] for pair in pairs], Stretch(layout[3 * first : 3 * stop]))
            for chunk in range(first, stop):
                chunk_start, step, steps = layout[3 * chunk : 3 * chunk + 3]
                commit_chunk([pair[1] for pair in pairs], chunk_start, step, steps)
        for stretched, chunked in pairs:
            assert stretched.met_tokens == chunked.met_tokens == recount(stretched, slo)
            assert stretched.met_until.hex() == chunked.met_until.hex()
            assert stretched.generated_tokens == chunked.generated_tokens
            assert [t.hex() for t in stretched.token_times] == [
                t.hex() for t in chunked.token_times
            ]
            assert stretched.decode_exec_time.hex() == chunked.decode_exec_time.hex()
