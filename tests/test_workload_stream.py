"""Tests for the streaming workload API (RequestStream and friends)."""

import warnings

import numpy as np
import pytest

from repro.models import market_mix
from repro.workload import (
    RequestStream,
    Trace,
    market_stream,
    materialize_trace,
    sharegpt,
    stream_trace,
)


class TestStreamTrace:
    def test_replayable_and_deterministic(self):
        models = market_mix(4)
        stream = stream_trace(models, [0.5] * 4, horizon=120.0, seed=11)
        first = list(stream)
        second = list(stream)  # same stream object re-iterates from scratch
        again = list(stream_trace(models, [0.5] * 4, horizon=120.0, seed=11))
        assert first == second == again
        assert first  # non-trivial workload

    def test_chronological_with_contiguous_ids(self):
        stream = stream_trace(market_mix(3), [0.4] * 3, horizon=100.0, seed=5)
        requests = list(stream)
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 100.0 for a in arrivals)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_expected_requests_close_to_actual(self):
        stream = stream_trace(market_mix(2), [1.0, 1.0], horizon=500.0, seed=3)
        assert stream.expected_requests == pytest.approx(1000.0)
        assert len(list(stream)) == pytest.approx(1000, rel=0.15)

    def test_spec_lookup(self):
        models = market_mix(2)
        stream = stream_trace(models, [0.2, 0.2], horizon=50.0, seed=1)
        assert stream.spec_of(models[0].name) == models[0]
        with pytest.raises(KeyError):
            stream.spec_of("missing")

    def test_zero_rate_model_never_appears(self):
        models = market_mix(3)
        stream = stream_trace(models, [0.5, 0.0, 0.5], horizon=200.0, seed=4)
        seen = {r.model for r in stream}
        assert models[1].name not in seen

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stream_trace(market_mix(3), [0.1] * 2, horizon=10.0, seed=0)

    def test_materialize_matches_iteration(self):
        stream = stream_trace(market_mix(3), [0.3] * 3, horizon=80.0, seed=8)
        trace = Trace(tuple(stream), stream.models, stream.horizon)
        assert tuple(trace) == trace.requests == tuple(stream)
        assert trace.models == stream.models
        assert trace.horizon == stream.horizon

    def test_trace_is_a_request_stream(self):
        trace = materialize_trace(
            market_mix(2), [0.4, 0.4], sharegpt(), horizon=60.0, seed=6
        )
        assert isinstance(trace, RequestStream)
        assert tuple(trace) == tuple(trace) == trace.requests
        counts = trace.per_model_counts()
        assert trace.rates == tuple(counts[spec.name] / 60.0 for spec in trace.models)
        assert trace.expected_requests == pytest.approx(len(trace))

    def test_non_positive_horizon_rejected(self):
        # A Trace is built through RequestStream.__init__, which checks
        # the horizon before the observed rates divide by it.
        with pytest.raises(ValueError, match="horizon"):
            Trace((), market_mix(1), horizon=0)


class TestMarketStreams:
    def test_market_stream_deterministic(self):
        a = list(market_stream(16, 60.0, seed=2, total_rate=4.0))
        b = list(market_stream(16, 60.0, seed=2, total_rate=4.0))
        assert a == b
        assert a

    def test_market_stream_zipf_head_dominates(self):
        stream = market_stream(32, 300.0, seed=9, total_rate=8.0)
        counts = {}
        for request in stream:
            counts[request.model] = counts.get(request.model, 0) + 1
        head = stream.models[0].name
        assert counts[head] == max(counts.values())


class TestDeprecations:
    # synthesize_trace() and Dataset.sample() finished the deprecation
    # lifecycle (warn in PR 6, RuntimeError stub after) and are gone
    # entirely: importing them fails, which needs no test.
    def test_synthesize_trace_is_gone(self):
        import repro.workload

        assert not hasattr(repro.workload, "synthesize_trace")

    def test_dataset_sample_is_gone(self):
        assert not hasattr(sharegpt(), "sample")

    def test_materialize_trace_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            materialize_trace(market_mix(2), [0.2, 0.2], sharegpt(), horizon=20.0)

    def test_in_repo_paths_emit_no_deprecation_warnings(self):
        # Nothing inside repro emits a DeprecationWarning: synthesis,
        # streaming, and an end-to-end serve all run clean under
        # warnings-as-errors.
        from repro.core import AegaeonConfig, SystemSpec, build_system
        from repro.sim import Environment

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trace = materialize_trace(
                market_mix(2), [0.2, 0.2], sharegpt(), horizon=15.0, seed=5
            )
            list(market_stream(4, 30.0, seed=3, total_rate=2.0))
            env = Environment()
            system = build_system(
                SystemSpec(
                    config=AegaeonConfig(
                        prefill_instances=1, decode_instances=1, cluster="h800-quad"
                    )
                ),
                env,
            )
            system.serve(trace, warm=False)
        assert system.registry.submitted == len(trace.requests)

    def test_stream_draws_match_dataset_distribution(self):
        # Scalar draw() must stay within the dataset's configured bounds.
        dataset = sharegpt()
        rng = np.random.default_rng(0)
        for _ in range(500):
            sample = dataset.draw(rng)
            assert 4 <= sample.input_tokens <= 8192
            assert 4 <= sample.output_tokens <= 2048
