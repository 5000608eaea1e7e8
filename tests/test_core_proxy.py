"""Tests for the proxy layer, status registry, and request lifecycle."""

import pytest

from repro.core import DrainWatchdog, ProxyLayer, Pump, StatusRegistry
from repro.engine import Phase, Request
from repro.models import get_model, market_mix
from repro.sim import Environment
from repro.workload import TraceRequest, materialize_trace, sharegpt


class TestProxyReplay:
    """The shared :class:`Pump` feeding a :class:`ProxyLayer`."""

    def pump_into(self, env, proxy, trace):
        def submit(trace_request, spec):
            proxy.admit(Request(trace=trace_request, spec=spec))

        return Pump(env, trace, submit)

    def test_dispatches_at_arrival_times(self):
        env = Environment()
        seen = []
        proxy = ProxyLayer(env, lambda request: seen.append((env.now, request)))
        models = market_mix(2)
        trace = materialize_trace(models, [0.5, 0.5], sharegpt(), horizon=30.0, seed=3)
        self.pump_into(env, proxy, trace)
        env.run()
        assert len(seen) == len(trace)
        for (time, request), trace_request in zip(seen, trace.requests):
            assert time == pytest.approx(trace_request.arrival)
            assert request.request_id == trace_request.request_id
            assert request.spec is trace.spec_of(trace_request.model)

    def test_pump_completion_signal(self):
        env = Environment()
        proxy = ProxyLayer(env, lambda request: None)
        models = market_mix(1)
        trace = materialize_trace(models, [0.2], sharegpt(), horizon=20.0, seed=4)
        pump = self.pump_into(env, proxy, trace)
        # The pump succeeds right after its last submission, not later.
        env.run(until=pump)
        assert pump.triggered
        assert env.now == pytest.approx(trace.requests[-1].arrival)
        assert len(proxy.requests) == len(trace)
        assert len(proxy.live) == len(trace)


class TestDrainWatchdog:
    def test_stops_when_done(self):
        env = Environment()
        watchdog = DrainWatchdog(env, lambda: env.now >= 3.0, deadline=10.0)
        env.run(until=watchdog)
        assert watchdog.drained
        assert env.now == 3.0

    def test_stops_at_deadline(self):
        env = Environment()
        watchdog = DrainWatchdog(env, lambda: False, deadline=4.5)
        env.run(until=watchdog)
        assert not watchdog.drained
        assert env.now == 5.0


class TestStatusRegistry:
    def make_request(self, request_id=0):
        trace = TraceRequest(
            request_id=request_id,
            model="Qwen-7B",
            arrival=0.0,
            input_tokens=10,
            output_tokens=2,
        )
        return Request(trace=trace, spec=get_model("Qwen-7B"))

    def test_counts(self):
        registry = StatusRegistry()
        request = self.make_request()
        registry.update(request)
        assert registry.submitted == 1
        assert registry.in_flight == 1
        request.record_tokens([1.0, 1.1])
        request.complete(1.1)
        registry.update(request)
        assert registry.finished == 1
        assert registry.in_flight == 0

    def test_duplicate_finish_not_double_counted(self):
        registry = StatusRegistry()
        request = self.make_request()
        registry.update(request)
        request.record_tokens([1.0, 1.1])
        request.complete(1.1)
        registry.update(request)
        registry.update(request)
        assert registry.finished == 1


class TestRequestLifecycle:
    def make_request(self, out=3):
        trace = TraceRequest(
            request_id=1, model="Qwen-7B", arrival=2.0, input_tokens=8, output_tokens=out
        )
        return Request(trace=trace, spec=get_model("Qwen-7B"))

    def test_progress_properties(self):
        request = self.make_request(out=3)
        assert request.remaining_tokens == 3
        assert request.context_tokens == 8
        request.record_tokens([3.0])
        assert request.generated_tokens == 1
        assert request.context_tokens == 9
        assert request.first_token_time == 3.0

    def test_overgeneration_rejected(self):
        request = self.make_request(out=2)
        with pytest.raises(ValueError):
            request.record_tokens([1.0, 1.1, 1.2])

    def test_complete_requires_all_tokens(self):
        request = self.make_request(out=2)
        request.record_tokens([1.0])
        with pytest.raises(ValueError):
            request.complete(1.0)
        request.record_tokens([1.1])
        request.complete(1.1)
        assert request.phase is Phase.FINISHED
        assert request.finish_time == 1.1

    def test_invalid_trace_request_rejected(self):
        with pytest.raises(ValueError):
            TraceRequest(
                request_id=0, model="m", arrival=0.0, input_tokens=0, output_tokens=5
            )
        with pytest.raises(ValueError):
            TraceRequest(
                request_id=0, model="m", arrival=-1.0, input_tokens=5, output_tokens=5
            )
