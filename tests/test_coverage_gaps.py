"""Focused tests for paths the broader suites touch only incidentally."""

import numpy as np
import pytest

from repro.analysis import ServingResult, format_table, percentiles
from repro.core import DEFAULT_SLO, SloSpec
from repro.engine import AegaeonEngine, EngineConfig
from repro.hardware import H800, Link, Node
from repro.memory import HostModelCache, SlabAllocator
from repro.models import get_model
from repro.policy import estimate_round_attainment
from repro.sim import Environment
from repro.workload import rate_series

from .outcomes import folded

GiB = 1024**3
MiB = 1024**2


class TestLinkQueueing:
    def test_queue_depth_visible_under_contention(self):
        env = Environment()
        link = Link(env, bandwidth=1e9, latency=0.0)
        for _ in range(3):
            env.process(link.transfer(int(1e9)))
        env.run(until=0.5)
        # One in flight, two queued.
        assert link.queue_depth == 2
        env.run()
        assert link.queue_depth == 0


class TestRateSeries:
    def test_windows_cover_horizon(self):
        arrivals = np.array([0.5, 1.5, 1.6, 9.9])
        centers, rates = rate_series(arrivals, horizon=10.0, window=2.0)
        assert len(centers) == len(rates) == 5
        assert rates[0] == pytest.approx(3 / 2.0)  # 0.5, 1.5, 1.6
        assert rates[4] == pytest.approx(1 / 2.0)  # 9.9

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            rate_series(np.array([1.0]), horizon=10.0, window=0.0)


class TestRoundAttainmentEstimate:
    def test_no_batches_is_perfect(self):
        assert estimate_round_attainment([], 5.0, DEFAULT_SLO) == 1.0

    def test_zero_cost_is_perfect(self):
        assert estimate_round_attainment([0.02, 0.03], 0.0, DEFAULT_SLO) == 1.0

    def test_step_slower_than_tbt_clamps(self):
        # When the step time exceeds the TBT the slack ratio clamps just
        # above one; the estimate stays a valid probability.
        slo = SloSpec(ttft=10.0, tbt=0.01)
        value = estimate_round_attainment([0.05, 0.05], 2.0, slo)
        assert 0.0 < value <= 1.0


class TestBlockingSyncPaths:
    """The non-fine-grained engine paths (T1/T2 ablation levels)."""

    def make_engine(self, env, config):
        node = Node(env, H800, gpu_count=1)
        cache = HostModelCache(640 * GiB)
        for name in ("Qwen-7B", "Yi-6B"):
            cache.insert(name, get_model(name).weight_bytes)
        return AegaeonEngine(
            env,
            node,
            node.gpus,
            cache,
            SlabAllocator(64 * GiB, 256 * MiB),
            config=config,
            pre_initialized=True,
        )

    def test_blocking_switch_records_kv_out_sync(self):
        env = Environment()
        config = EngineConfig(
            fine_grained_sync=False, prefetch=False
        )
        engine = self.make_engine(env, config)
        from repro.models import kv_shape
        from repro.transfer import RequestKv

        def scenario():
            yield from engine.scale_to(get_model("Qwen-7B"))
            kv = RequestKv(request_id=0, shape=kv_shape(get_model("Qwen-7B")), tokens=2048)
            engine.kv.alloc_gpu(kv)
            engine.kv.swap_out(kv)
            record = yield from engine.scale_to(get_model("Yi-6B"))
            return record

        record = env.run(until=env.process(scenario()))
        assert "kv_out_sync" in record.stages
        assert record.stages["kv_out_sync"] > 0

    def test_gc_stage_charged_without_explicit_memory(self):
        env = Environment()
        config = EngineConfig(
            explicit_memory=False, fine_grained_sync=False, prefetch=False
        )
        engine = self.make_engine(env, config)

        def scenario():
            yield from engine.scale_to(get_model("Qwen-7B"))
            record = yield from engine.scale_to(get_model("Yi-6B"))
            return record

        record = env.run(until=env.process(scenario()))
        assert record.stages.get("gc") == pytest.approx(
            engine.init_costs.gc_pass
        )


class TestServingResultEdges:
    def test_summary_with_unserved_requests(self):
        from repro.engine.request import Request
        from repro.workload import TraceRequest

        trace = TraceRequest(
            request_id=0, model="Qwen-7B", arrival=0.0, input_tokens=8, output_tokens=4
        )
        request = Request(trace=trace, spec=get_model("Qwen-7B"))
        result = ServingResult(
            shard_stats=[folded([request])],
            requests=[request],
            slo=DEFAULT_SLO,
            horizon=10.0,
            end_time=10.0,
        )
        summary = result.summary()
        assert summary["finished"] == 0
        assert np.isnan(summary["mean_ttft"])
        assert result.slo_attainment == 0.0

    def test_kv_sync_overheads_default_zero(self):
        result = ServingResult(
            shard_stats=[folded([])], requests=[], slo=DEFAULT_SLO, horizon=1.0,
            end_time=1.0,
        )
        assert result.kv_sync_overheads().size == 0

    @staticmethod
    def figures(result):
        return (
            result.ttfts,
            result.latency_breakdown,
            result.scaling_latencies,
            result.kv_sync_overheads,
            result.per_request_attainment,
        )

    def test_figure_arrays_refuse_a_streaming_run(self):
        # A fleet run with retain_requests=False keeps no requests.
        result = ServingResult(
            shard_stats=[folded([])], requests=None, slo=DEFAULT_SLO, horizon=1.0,
            end_time=1.0,
        )
        for figure in self.figures(result):
            with pytest.raises(RuntimeError, match=r"retain_requests=True"):
                figure()

    def test_figure_arrays_of_a_retained_run_without_requests(self):
        result = ServingResult(
            shard_stats=[folded([])], requests=[], slo=DEFAULT_SLO, horizon=1.0,
            end_time=1.0,
        )
        ttfts, breakdown, scaling, sync, attainment = self.figures(result)
        assert ttfts().size == scaling().size == sync().size == attainment().size == 0
        assert set(breakdown().as_dict().values()) == {0}

    def test_scaling_latencies_filters_first_boot(self):
        from repro.engine.engine import ScaleRecord

        boot = ScaleRecord(model_from=None, model_to="a", started=0.0, ended=20.0)
        switch = ScaleRecord(model_from="a", model_to="b", started=21.0, ended=22.0)
        result = ServingResult(
            shard_stats=[folded([])],
            requests=[],
            slo=DEFAULT_SLO,
            horizon=1.0,
            end_time=1.0,
            scale_records=[boot, switch],
        )
        assert result.scaling_latencies().tolist() == [1.0]
        assert result.scaling_latencies(exclude_first_boot=False).size == 2


class TestReportingEdges:
    def test_table_handles_nan_and_large_values(self):
        table = format_table(["x"], [[float("nan")], [123456.0], [0.0001]])
        assert "nan" in table
        assert "1.23e" in table or "123456" in table

    def test_percentiles_custom_points(self):
        values = np.arange(11.0)
        result = percentiles(values, points=(10, 90))
        assert set(result) == {"p10", "p90"}
