"""Token times are stored as runs and read through a view.

A request keeps runs of two kinds: a bare float ``t`` (a first token,
read as the chunk ``(t, 0.0, 1)``), or a
:class:`~repro.engine.request.Stretch` of chunks ``(start, step, n)``,
shared by its batch: one chunk per commit of a baseline's decode loop,
or the chunks of an Aegaeon decode run one landing commits.
``Request.token_times`` is a
:class:`~repro.engine.request.TokenTimes` view computing each time as
``start + (i + 1) * step`` chunk by chunk, the expression the decode
loops used to expand per token.  The property here holds the view, and
the derived ``decode_exec_time``, to the per-token list and the
per-chunk fold bit for bit; the structural test checks that a serve
shares one record per commit across the batch (one per chunk on the
baselines, one per landed stretch on Aegaeon); the last tests feed
invariant I2 runs that go backwards.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.chaos.invariants import InvariantChecker, _WatchedRuns
from repro.core import (
    AegaeonConfig,
    SystemConfig,
    SystemSpec,
    available_systems,
    tokens_met,
)
from repro.core import batcher as batcher_module
from repro.core import instance as instance_module
from repro.core import unified as unified_module
from repro.engine.request import (
    Phase,
    Request,
    Stretch,
    TokenTimes,
    commit_stretch,
)
from repro.models import get_model, market_mix
from repro.workload import TraceRequest, materialize_trace, sharegpt


def make_request(output_tokens, request_id=0, arrival=0.0):
    trace = TraceRequest(
        request_id=request_id,
        model="Qwen-7B",
        arrival=arrival,
        input_tokens=16,
        output_tokens=output_tokens,
    )
    return Request(trace=trace, spec=get_model("Qwen-7B"))


times_st = st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False)
chunk_st = st.tuples(
    times_st,
    st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
    st.integers(1, 16),
)
#: A chunk ``(start, step, n)`` with ``step`` 0 or positive, committed
#: as a one-chunk stretch, as the baselines commit; a single time
#: committed through ``record_tokens`` (``n`` is None); or a stretch of
#: chunks committed through ``commit_stretch`` (a list of chunks).
segment_st = st.one_of(
    chunk_st,
    st.tuples(times_st, st.none(), st.none()),
    st.tuples(st.lists(chunk_st, min_size=1, max_size=5), st.none(), st.just("stretch")),
)


def commit_segments(request, segments) -> tuple[list, float]:
    """Commit ``segments`` to ``request``; the per-token times and the
    per-chunk ``steps * step`` fold they should read back as."""
    expected = []
    exec_time = 0.0
    for start, step, n in segments:
        if n is None:
            request.record_tokens([start])
            expected.append(start)
            continue
        chunks = [(start, step, n)]
        if n == "stretch":
            chunks = start
            commit_stretch([request], Stretch([value for chunk in chunks for value in chunk]))
        else:
            commit_stretch([request], Stretch((start, step, n)))
        for start, step, n in chunks:
            expected += [start + (i + 1) * step for i in range(n)]
            exec_time += n * step
    return expected, exec_time


def segment_tokens(segments) -> int:
    total = 0
    for start, step, n in segments:
        if n is None:
            total += 1
        elif n == "stretch":
            total += sum(chunk[2] for chunk in start)
        else:
            total += n
    return total


def hexes(values):
    return [float(t).hex() for t in values]


class TestTokenTimesView:
    @given(segments=st.lists(segment_st, max_size=12), data=st.data())
    def test_view_equals_the_per_token_list(self, segments, data):
        total = segment_tokens(segments)
        request = make_request(max(total, 1))
        expected, exec_time = commit_segments(request, segments)
        assert request.decode_exec_time.hex() == exec_time.hex()
        view = request.token_times
        assert isinstance(view, TokenTimes)
        assert len(view) == len(expected) == request.generated_tokens
        assert hexes(view) == hexes(expected)
        assert hexes(view[i] for i in range(len(view))) == hexes(expected)
        assert hexes(view[-i] for i in range(1, len(view) + 1)) == hexes(
            expected[-i] for i in range(1, len(expected) + 1)
        )
        lo = data.draw(st.integers(-total - 2, total + 2), label="lo")
        hi = data.draw(st.integers(-total - 2, total + 2), label="hi")
        stride = data.draw(st.sampled_from([1, 2, -1]), label="stride")
        assert hexes(view[lo:hi:stride]) == hexes(expected[lo:hi:stride])
        assert view == expected and expected == view
        assert view == request.token_times
        assert list(view) == expected and tuple(view) == tuple(expected)
        array = np.asarray(view, dtype=float)
        assert array.tobytes() == np.array(expected, dtype=float).tobytes()
        assert bool(view) == bool(expected)
        for index in (total, -total - 1):
            with pytest.raises(IndexError):
                view[index]
        if expected:
            assert request.first_token_time.hex() == expected[0].hex()
            assert request.last_token_time.hex() == expected[-1].hex()
            assert view != expected[:-1]
        else:
            assert request.first_token_time is None
            assert request.last_token_time is None

    def test_reset_progress_clears_the_runs(self):
        request = make_request(8)
        request.record_tokens([1.0])
        commit_stretch([request], Stretch((1.0, 0.1, 3)))
        commit_stretch([request], Stretch([1.3, 0.1, 2, 1.5, 0.1, 2]))
        request.reset_progress()
        assert request.runs == [] and request.token_times == []
        assert request.first_token_time is None
        assert request.decode_exec_time == 0.0


def config(name):
    if name == "aegaeon":
        return AegaeonConfig(
            prefill_instances=1, decode_instances=1, cluster="h800-pair"
        )
    return SystemConfig(cluster="h800-pair")


def small_trace():
    return materialize_trace(
        market_mix(5), [0.25, 0.2, 0.15, 0.1, 0.05], sharegpt(), horizon=40.0, seed=13
    )


@pytest.mark.parametrize("name", available_systems())
def test_batch_mates_share_one_run_per_chunk(name, monkeypatch):
    # The baselines commit one stretch per decode chunk; Aegaeon's decode
    # runs commit one stretch per landing, however many chunks it covers.
    # Either way the batch shares the one record, and each commit appends
    # exactly one per member.
    records = {}
    commits = []

    def spy(commit):
        def committed(requests, *args):
            before = [len(request.runs) for request in requests]
            commit(requests, *args)
            assert all(len(r.runs) == b + 1 for r, b in zip(requests, before))
            commits.append((list(requests), before))
            for request in requests:
                records[request.request_id] = records.get(request.request_id, 0) + 1
        return committed

    for module in (instance_module, unified_module, batcher_module):
        monkeypatch.setattr(module, "commit_stretch", spy(commit_stretch))
    result = SystemSpec(system=name, config=config(name)).build().serve(small_trace())
    assert result.drained and commits
    # Decoding-first drains each prompt's output before the next prefill,
    # so its batches hold one request; every other system batches.
    assert any(len(batch) > 1 for batch, _ in commits) == (
        name != "unified-decode-first"
    )
    for batch, before in commits:
        run = batch[0].runs[before[0]]
        assert all(r.runs[b] is run for r, b in zip(batch, before))
        assert isinstance(run, Stretch)
    if name == "aegaeon":
        # Some landing covers several chunks with the one record.
        assert any(len(batch[0].runs[before[0]]) > 3 for batch, before in commits)
    for request in result.requests:
        assert len(request.runs) <= records.get(request.request_id, 0) + 1


class TestI2WalksRuns:
    """Invariant I2 checks monotonicity run by run."""

    def checker(self):
        spec = SystemSpec(config=config("aegaeon"), invariants=True)
        system = spec.build()
        assert isinstance(system.invariant_checker, InvariantChecker)
        system.env.run(until=5.0)
        return system.invariant_checker

    def vet(self, runs, output_tokens=8):
        checker = self.checker()
        request = make_request(output_tokens, request_id=7)
        request.runs.extend(Stretch(run) for run in runs)
        request.generated_tokens = sum(n for _, _, n in runs)
        request.met_tokens = tokens_met(
            request.arrival, list(request.token_times), checker._slo
        )[0]
        request.phase = Phase.FAILED
        checker.vet_terminal(request)
        return checker

    def test_well_formed_runs_pass(self):
        checker = self.vet([(1.0, 0.0, 1), (1.0, 0.25, 3), (2.0, 0.5, 2)])
        assert checker.violations == []

    def test_negative_step_is_flagged(self):
        checker = self.vet([(1.0, 0.0, 1), (3.0, -0.5, 3)])
        assert "token-monotonicity" in [v.invariant for v in checker.violations]

    def test_run_starting_before_the_previous_end_is_flagged(self):
        # The second run's first token (1.5) precedes the first run's
        # last token (2.0).
        checker = self.vet([(1.0, 0.5, 2), (1.0, 0.5, 3)])
        assert "token-monotonicity" in [v.invariant for v in checker.violations]
        assert any("decrease" in v.detail for v in checker.violations)

    def test_each_commit_checks_its_new_run(self):
        # An admitted request's runs check each appended run in O(1):
        # well-formed commits pass, and a run starting before the last
        # token is flagged at the commit's sim time.
        checker = self.checker()
        request = make_request(8, request_id=7)
        request.runs = _WatchedRuns(checker, request)
        request.record_tokens([1.0])
        commit_stretch([request], Stretch((1.0, 0.25, 3)))
        commit_stretch([request], Stretch((2.0, 0.25, 2)))
        assert checker.violations == []
        assert checker._check_request_tokens(request, 5.0) == request.met_tokens
        commit_stretch([request], Stretch((1.0, 0.25, 1)))
        assert [v.invariant for v in checker.violations] == ["token-monotonicity"]
        assert "decrease" in checker.violations[0].detail
        assert checker.violations[0].time == checker.env.now == 5.0

    def test_each_chunk_of_a_stretch_is_checked(self):
        # A stretch is checked chunk by chunk as it is appended: a
        # second chunk starting before the first one ends is flagged.
        checker = self.checker()
        request = make_request(8, request_id=7)
        request.runs = _WatchedRuns(checker, request)
        request.record_tokens([1.0])
        commit_stretch([request], Stretch([1.0, 0.25, 2, 1.5, 0.25, 2]))
        assert checker.violations == []
        assert checker._check_request_tokens(request, 5.0) == request.met_tokens
        # The second chunk of this stretch goes back before the first.
        commit_stretch([request], Stretch([2.0, 0.25, 1, 1.25, 0.25, 2]))
        assert [v.invariant for v in checker.violations] == ["token-monotonicity"]
        assert "decrease" in checker.violations[0].detail
        request.runs = _WatchedRuns(checker, request)  # rebuilt from the runs
        assert request.runs.tokens == request.generated_tokens == 8
