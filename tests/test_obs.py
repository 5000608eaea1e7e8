"""Unit tests for the observability layer (tracer, metrics, exporters)."""

import io
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import FleetConfig, build_fleet
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    ObsConfig,
    Observability,
    Tracer,
    chrome_trace,
    format_switch_breakdown,
    metrics_to_csv,
    switch_breakdown,
    write_chrome_trace,
)
from repro.obs.metrics import _NullCounter
from repro.sim import Environment
from repro.workload import market_stream


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tracer -------------------------------------------------------------------
class TestTracer:
    def test_span_records_interval(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 1.0
        with tracer.span("work", cat="exec", track="gpu0", model="m"):
            clock.now = 3.5
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == pytest.approx(2.5)
        assert span.args == {"model": "m"}

    def test_nested_spans_record_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer", track="gpu0"):
            clock.now = 1.0
            with tracer.span("inner", track="gpu0"):
                clock.now = 2.0
            clock.now = 4.0
        inner, outer = tracer.spans  # completion order: inner first
        assert inner.parent == "outer"
        assert outer.parent is None
        assert tracer.children_of(outer) == [inner]

    def test_nesting_is_per_track(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("a", track="gpu0"):
            with tracer.span("b", track="gpu1"):
                pass
        assert tracer.spans_named("b")[0].parent is None

    def test_span_set_attaches_args(self):
        tracer = Tracer(FakeClock())
        with tracer.span("switch", track="gpu0") as span:
            span.set(prefetch_hit=True)
        assert tracer.spans[0].args["prefetch_hit"] is True

    def test_complete_and_instant_and_counter(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.complete("copy", cat="stream", track="kv_in", start=0.5, end=0.9)
        clock.now = 2.0
        tracer.instant("swap_out", cat="kv", track="kv_out", request_id=7)
        tracer.counter("queue", track="sched", value=3.0)
        assert tracer.spans[0].duration == pytest.approx(0.4)
        assert tracer.instants[0].ts == 2.0
        assert tracer.instants[0].args == {"request_id": 7}
        assert tracer.counters[0].value == 3.0
        assert len(tracer) == 3

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(FakeClock(), enabled=False)
        with tracer.span("work", track="gpu0") as span:
            span.set(ignored=True)
        tracer.instant("event", track="gpu0")
        tracer.counter("queue", track="gpu0", value=1.0)
        tracer.complete("copy", cat="c", track="t", start=0.0, end=1.0)
        assert len(tracer) == 0

    def test_clear_drops_records(self):
        tracer = Tracer(FakeClock())
        tracer.instant("event", track="t")
        tracer.clear()
        assert len(tracer) == 0


# -- metrics ------------------------------------------------------------------
class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", scope="cache")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_and_set_fn(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(4.0)
        assert gauge.value == 4.0
        backing = [7.0]
        gauge.set_fn(lambda: backing[0])
        backing[0] = 9.0
        assert gauge.value == 9.0

    def test_histogram_percentiles_match_numpy(self):
        # Count and mean are exact; the geometric quantiles' error bound
        # is checked in tests/test_fleet.py::TestLatencyHistogram.
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        rng = np.random.default_rng(7)
        samples = rng.exponential(1.0, size=200)
        for sample in samples:
            hist.observe(float(sample))
        assert hist.mean == pytest.approx(float(samples.mean()))
        assert hist.count == 200

    def test_histogram_empty_and_bad_percentile(self):
        hist = MetricsRegistry().histogram("empty")
        assert np.isnan(hist.quantile(0.5))
        assert np.isnan(hist.mean)
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.01)

    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("n", scope="s") is registry.counter("n", scope="s")
        assert registry.counter("n", scope="a") is not registry.counter("n", scope="b")

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", scope="s")
        with pytest.raises(TypeError):
            registry.gauge("x", scope="s")

    def test_scoped_view(self):
        registry = MetricsRegistry()
        scope = registry.scoped("decode0")
        scope.counter("rounds").inc(3)
        assert registry.counter("rounds", scope="decode0").value == 3

    def test_snapshot_flattens(self):
        registry = MetricsRegistry()
        registry.counter("hits", scope="cache").inc(2)
        registry.histogram("wait", scope="kv").observe(1.0)
        snap = registry.snapshot()
        assert snap["cache/hits"] == 2
        assert snap["kv/wait"]["count"] == 1.0
        assert snap["kv/wait"]["p50"] == 1.0

    def test_disabled_registry_returns_nulls(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("hits")
        counter.inc(100)
        assert counter.value == 0.0
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(1.0)
        assert len(registry) == 0
        assert registry.snapshot() == {}


# -- facade -------------------------------------------------------------------
class TestObservability:
    def test_levels(self):
        off = Observability(ObsConfig.off())
        assert not off.enabled
        assert not off.tracer.enabled
        assert not off.metrics.enabled
        metrics_only = Observability(ObsConfig.metrics_only())
        assert metrics_only.metrics.enabled and not metrics_only.tracer.enabled
        full = Observability(ObsConfig.full())
        assert full.metrics.enabled and full.tracer.enabled

    def test_null_obs_is_disabled(self):
        assert not NULL_OBS.enabled
        NULL_OBS.scoped("x").counter("y").inc()
        assert len(NULL_OBS.metrics) == 0

    def test_obs_config_from_env(self):
        assert ObsConfig.from_env({}) == ObsConfig.off()
        assert ObsConfig.from_env({"REPRO_OBS": "metrics"}) == ObsConfig.metrics_only()
        assert ObsConfig.from_env({"REPRO_OBS": "full"}) == ObsConfig.full()
        with pytest.raises(ValueError):
            ObsConfig.from_env({"REPRO_OBS": "loud"})


# -- exporters ----------------------------------------------------------------
class TestExporters:
    def _tracer(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("model_switch", cat="switch", track="decode0") as span:
            clock.now = 0.2
            with tracer.span("model_load", cat="switch.stage", track="decode0"):
                clock.now = 1.0
            span.set(prefetch_hit=False)
        tracer.instant("swap_in", cat="kv", track="decode0.kv")
        tracer.counter("queue", track="sched", value=2.0)
        return tracer

    def test_chrome_trace_round_trips_through_json(self):
        document = chrome_trace(self._tracer())
        parsed = json.loads(json.dumps(document))
        events = parsed["traceEvents"]
        phases = {event["ph"] for event in events}
        assert {"M", "X", "i", "C"} <= phases
        switch = next(e for e in events if e["name"] == "model_switch")
        assert switch["ts"] == 0.0
        assert switch["dur"] == pytest.approx(1.0 * 1e6)
        # Every track got a thread_name metadata record.
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"decode0", "decode0.kv", "sched"}

    def test_write_chrome_trace_to_file_object(self):
        buffer = io.StringIO()
        write_chrome_trace(self._tracer(), buffer)
        assert json.loads(buffer.getvalue())["traceEvents"]

    def test_switch_breakdown_aggregates_stages(self):
        tracer = self._tracer()
        stages = switch_breakdown(tracer)
        assert stages == {"model_load": pytest.approx(0.8)}
        assert switch_breakdown(tracer, track="other") == {}
        text = format_switch_breakdown(tracer)
        assert "model switches: 1" in text
        assert "model_load" in text
        assert format_switch_breakdown(Tracer(FakeClock())) == (
            "no model switches recorded"
        )

    def test_metrics_to_csv(self):
        registry = MetricsRegistry()
        registry.counter("hits", scope="cache").inc(2)
        registry.histogram("wait", scope="kv").observe(0.5)
        csv = metrics_to_csv(registry)
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,value"
        assert "cache/hits,2" in lines
        assert any(line.startswith("kv/wait.p99,") for line in lines)


class TestDisabledPathAllocationFree:
    """The disabled observability path must be allocation-free: every
    span/instant on a disabled tracer resolves to shared no-op
    singletons and records nothing."""

    def test_disabled_span_is_shared_singleton(self):
        tracer = NULL_OBS.tracer
        assert not tracer.enabled
        a = tracer.span("x", cat="c", track="t")
        b = tracer.span("y")
        assert a is b
        with a:
            pass
        assert len(tracer) == 0

    def test_disabled_instant_and_counter_record_nothing(self):
        tracer = NULL_OBS.tracer
        tracer.instant("evt", cat="c", track="t", detail=1)
        assert len(tracer) == 0
        counter = NULL_OBS.scoped("scope").counter("n")
        other = NULL_OBS.scoped("other").counter("m")
        counter.inc()
        other.inc(5)
        assert len(NULL_OBS.metrics) == 0

    def test_null_gauge_and_histogram_are_inert(self):
        gauge = NULL_OBS.scoped("s").gauge("g")
        gauge.set_fn(lambda: 1.0)
        histogram = NULL_OBS.scoped("s").histogram("h")
        histogram.observe(0.5)
        assert len(NULL_OBS.metrics) == 0


class TestPerUnitMetricsAreGauges:
    """Metrics updated per block or per swap read plain ints at snapshot
    time, so the allocator and the swap paths call no null instrument
    when observability is off."""

    @staticmethod
    def _shard_spec(obs):
        return SystemSpec(config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad", obs=obs,
        ))

    def test_fleet_replay_off_makes_no_null_counter_calls(self, monkeypatch):
        callers = Counter()

        def inc(self, amount=1.0):
            callers[sys._getframe(1).f_code.co_filename] += 1

        monkeypatch.setattr(_NullCounter, "inc", inc)
        fleet = build_fleet(FleetConfig(
            shards=2, spec=self._shard_spec(ObsConfig.off()), obs=ObsConfig.off(),
        ))
        result = fleet.run(market_stream(12, 40.0, seed=2, total_rate=2.0))
        assert result.drained
        systems = [shard.system for shard in fleet.shards]
        assert sum(s.cpu_kv_cache.blocks_allocated for s in systems) > 0
        assert sum(
            i.engine.kv.stats.swap_out_count
            for s in systems for i in s.prefill_instances
        ) > 0
        assert callers  # the patch sees the disabled path
        hot = [
            path for path in callers
            if path.endswith((
                os.path.join("memory", "slab.py"),
                os.path.join("transfer", "kv_transfer.py"),
            ))
        ]
        assert hot == []

    def test_full_snapshot_reads_the_plain_ints(self):
        env = Environment()
        system = self._shard_spec(ObsConfig.full()).build(env)
        result = system.serve(market_stream(8, 40.0, seed=2, total_rate=1.0))
        metrics = result.metrics
        caches = [system.cpu_kv_cache]
        managers = []
        for instance in system.prefill_instances + system.decode_instances:
            caches.append(instance.engine.gpu_kv_cache)
            managers.append(instance.engine.kv)
        for cache in caches:
            assert metrics[f"{cache.name}/blocks_allocated"] == cache.blocks_allocated
            assert metrics[f"{cache.name}/blocks_freed"] == cache.blocks_freed
        assert system.cpu_kv_cache.blocks_allocated > 0
        for manager in managers:
            stats, scope = manager.stats, f"kv.{manager.name}"
            assert metrics[f"{scope}/swap_in"] == stats.swap_in_count
            assert metrics[f"{scope}/swap_out"] == stats.swap_out_count
            assert metrics[f"{scope}/bytes_in"] == stats.bytes_in
            assert metrics[f"{scope}/bytes_out"] == stats.bytes_out
        assert sum(m.stats.swap_in_count for m in managers) > 0
