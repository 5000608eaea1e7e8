"""Tests for the fleet control plane: partitioning, rollup, fleet runs."""

import math

import numpy as np
import pytest

from repro.chaos import FaultPlan, InstanceFailure
from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import (
    CatalogPartitioner,
    FleetConfig,
    FleetRollup,
    ShardStats,
    build_fleet,
)
from repro.engine import Phase
from repro.models import get_model, market_mix
from repro.obs import Histogram, MetricsRegistry
from repro.policy import MARKET_HOURLY_USD
from repro.workload import market_stream, materialize_trace, sharegpt


def small_spec(**overrides):
    """A 4-GPU Aegaeon shard, cheap enough to stack several per test."""
    config = AegaeonConfig(
        prefill_instances=1, decode_instances=3, cluster="h800-quad", **overrides
    )
    return SystemSpec(config=config)


class TestPartitioner:
    def test_deterministic_across_instances(self):
        names = [f"model-{i:03d}" for i in range(200)]
        a = CatalogPartitioner(8)
        b = CatalogPartitioner(8)
        assert [a.shard_of(n) for n in names] == [b.shard_of(n) for n in names]

    def test_assign_covers_catalog_exactly_once(self):
        models = market_mix(60)
        partitioner = CatalogPartitioner(5)
        buckets = partitioner.assign(models)
        assert set(buckets) == set(range(5))
        flat = [spec.name for bucket in buckets.values() for spec in bucket]
        assert sorted(flat) == sorted(spec.name for spec in models)

    def test_spread_is_roughly_uniform(self):
        names = [f"model-{i}" for i in range(4000)]
        partitioner = CatalogPartitioner(4, virtual_nodes=128)
        counts = [0] * 4
        for name in names:
            counts[partitioner.shard_of(name)] += 1
        assert min(counts) > 0.5 * (4000 / 4)
        assert max(counts) < 2.0 * (4000 / 4)

    def test_pin_overrides_ring(self):
        partitioner = CatalogPartitioner(4)
        home = partitioner.shard_of("hot-model")
        target = (home + 1) % 4
        partitioner.pin("hot-model", target)
        assert partitioner.shard_of("hot-model") == target

    def test_pin_validates_range(self):
        with pytest.raises(ValueError):
            CatalogPartitioner(2).pin("m", 5)

    def test_rebalance_sheds_overloaded_shard(self):
        partitioner = CatalogPartitioner(4)
        loads = {f"model-{i}": 0.05 for i in range(40)}
        hot = "model-7"
        loads[hot] = 10.0  # one model dwarfs everything
        before = max(_shard_loads(partitioner, loads))
        moves = partitioner.rebalance(loads, tolerance=0.10)
        after = max(_shard_loads(partitioner, loads))
        assert after <= before
        # Deterministic: a fresh partitioner makes identical moves.
        again = CatalogPartitioner(4).rebalance(dict(loads), tolerance=0.10)
        assert moves == again


def _shard_loads(partitioner, loads):
    totals = [0.0] * partitioner.shard_count
    for name, load in loads.items():
        totals[partitioner.shard_of(name)] += load
    return totals


class TestLatencyHistogram:
    def test_merge_equals_union(self):
        rng = np.random.default_rng(5)
        left_values = rng.lognormal(-2.0, 1.0, 3000)
        right_values = rng.lognormal(-1.0, 0.5, 2000)
        left, right, union = (
            Histogram(),
            Histogram(),
            Histogram(),
        )
        for v in left_values:
            left.observe(v)
            union.observe(v)
        for v in right_values:
            right.observe(v)
            union.observe(v)
        left.merge(right)
        assert left.count == union.count == 5000
        assert left.total == pytest.approx(union.total)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert left.quantile(q) == union.quantile(q)

    def test_quantiles_track_exact_within_bucket_error(self):
        # The rollup's histogram and the obs registry's are one class.
        rng = np.random.default_rng(9)
        values = rng.lognormal(-2.0, 1.2, 20000)
        for hist in (Histogram(), MetricsRegistry().histogram("latency")):
            for v in values:
                hist.observe(v)
            for q in (0.50, 0.99):
                exact = float(np.quantile(values, q))
                # Geometric buckets: 32/decade => <= ~7.5% relative error.
                assert hist.quantile(q) == pytest.approx(exact, rel=0.08)
            summary = hist.summary()
            for p in (50, 90, 99):
                exact = float(np.percentile(values, p))
                assert summary[f"p{p}"] == pytest.approx(exact, rel=0.08)

    def test_empty_histogram(self):
        hist = Histogram()
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.mean)


class TestRollupConsistency:
    def test_fleet_counts_are_shard_sums(self):
        fleet = build_fleet(FleetConfig(shards=3, spec=small_spec()))
        stream = market_stream(18, 90.0, seed=21, total_rate=3.0)
        result = fleet.run(stream)
        total = result.rollup.total
        assert total.requests == sum(s.requests for s in result.shard_stats)
        assert total.requests == result.submitted
        assert total.tokens_met == sum(s.tokens_met for s in result.shard_stats)
        assert total.tokens_generated == sum(
            s.tokens_generated for s in result.shard_stats
        )
        assert total.ttft.count == sum(
            s.ttft.count for s in result.shard_stats
        )

    def test_fleet_rollup_matches_direct_merge(self):
        fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
        result = fleet.run(market_stream(12, 60.0, seed=3, total_rate=2.0))
        direct = ShardStats()
        for stats in result.shard_stats:
            direct.merge(stats)
        rollup = FleetRollup(result.shard_stats)
        assert rollup.total.tokens_met == direct.tokens_met
        assert rollup.total.ttft.quantile(0.99) == direct.ttft.quantile(0.99)
        assert rollup.slo_attainment == direct.slo_attainment

    def test_attainment_counts_missing_tokens_as_missed(self):
        stats = ShardStats()

        class Stub:
            phase = None
            finished = False
            arrival = 0.0
            token_times = []
            output_tokens = 100
            input_tokens = 10
            met_tokens = 0
            generated_tokens = 0

        Stub.phase = Phase.FAILED
        stats.fold(Stub())
        assert stats.tokens_expected == 100
        assert stats.slo_attainment == 0.0


class TestFleetRuns:
    def test_same_seed_runs_are_identical(self):
        def run():
            fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
            return fleet.run(market_stream(12, 60.0, seed=17, total_rate=2.0))

        first, second = run(), run()
        assert first.summary() == second.summary()
        assert [s.as_dict() for s in first.shard_stats] == [
            s.as_dict() for s in second.shard_stats
        ]

    def test_streaming_mode_drops_disposed_requests(self):
        fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
        result = fleet.run(market_stream(12, 60.0, seed=8, total_rate=2.0))
        assert result.submitted > 0
        assert result.drained and result.unaccounted == 0
        for shard in fleet.shards:
            assert shard.system.proxy.requests == []  # nothing retained
            assert shard.system.proxy.live == {}
            assert shard.system.accounted == shard.stats.requests
        assert result.requests is None
        with pytest.raises(RuntimeError, match=r"retain_requests=True"):
            result.ttfts()

    def test_muxserve_shards(self):
        # Each shard places its slice of the catalog ranked by the
        # stream's per-model rates.
        fleet = build_fleet(
            FleetConfig(
                shards=2, spec=SystemSpec(system="muxserve", cluster="h800-quad")
            )
        )
        result = fleet.run(market_stream(8, 40.0, seed=2, total_rate=1.0))
        assert result.drained and result.unaccounted == 0
        assert result.rollup.total.requests == result.submitted > 0
        for shard in fleet.shards:
            owned = {spec.name for spec in shard.models}
            placed = {
                name for instance in shard.system.instances
                for name in instance.models
            }
            assert placed | shard.system.unplaced == owned

    def test_deadline_cut_reports_unaccounted(self):
        fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
        result = fleet.run(market_stream(12, 60.0, seed=8, total_rate=2.0), until=30.0)
        in_flight = sum(len(shard.system.proxy.live) for shard in fleet.shards)
        assert not result.drained
        assert result.unaccounted == in_flight > 0

    def test_retaining_mode_keeps_ledgers(self):
        fleet = build_fleet(
            FleetConfig(shards=2, spec=small_spec(), retain_requests=True)
        )
        result = fleet.run(market_stream(12, 60.0, seed=8, total_rate=2.0))
        kept = sum(
            r.phase is Phase.FINISHED
            for s in fleet.shards
            for r in s.system.proxy.requests
        )
        assert kept == result.rollup.total.finished > 0
        # The result's figure inputs are every shard's ledger, in order.
        assert result.requests == [
            r for shard in fleet.shards for r in shard.system.proxy.requests
        ]
        assert len(result.ttfts()) == result.submitted
        assert result.finished_requests == kept

    def test_cost_accounting_uses_market_rates(self):
        fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
        result = fleet.run(market_stream(8, 40.0, seed=2, total_rate=1.0))
        # 8 H800s at $12/hr for end_time seconds.
        expected = 8 * 12.00 * result.end_time / 3600.0
        assert result.cost_usd == pytest.approx(expected)
        assert result.cost_per_token == pytest.approx(
            expected / result.rollup.total.tokens_generated
        )

    def test_baseline_fleet_bills_its_own_gpus(self):
        # A ServerlessLLM shard on the a10 preset: 4 A10s at $0.75/hr,
        # not the H800 rate.
        spec = SystemSpec(system="serverless-llm", cluster="a10")
        fleet = build_fleet(FleetConfig(shards=1, spec=spec))
        trace = materialize_trace([get_model("Yi-6B")], [0.2], sharegpt(), 30.0, seed=4)
        result = fleet.run(trace)
        assert result.drained and result.end_time > 0
        assert result.cost_usd == pytest.approx(4 * 0.75 * result.end_time / 3600.0)

    def test_serve_bills_its_pool_at_market_rates(self):
        # The one collector bills serve() too: an h800-quad pool is 4
        # H800s at $12/hr, the bill simbench's pool_sweep works by hand.
        system = small_spec().build()
        trace = materialize_trace([get_model("Yi-6B")], [0.2], sharegpt(), 30.0, seed=4)
        result = system.serve(trace)
        assert result.drained and result.end_time > 0
        assert result.cost_usd == pytest.approx(4 * 12.00 * result.end_time / 3600.0)
        assert result.gpu_hours == pytest.approx(
            system.gpu_count * result.end_time / 3600.0
        )

    def test_unpriced_gpu_fails_loudly(self, monkeypatch):
        # A GPU missing from the market table is never billed at $0.
        monkeypatch.delitem(MARKET_HOURLY_USD, "H800")
        fleet = build_fleet(FleetConfig(shards=1, spec=small_spec()))
        trace = materialize_trace([get_model("Yi-6B")], [0.2], sharegpt(), 10.0, seed=4)
        with pytest.raises(KeyError, match="H800"):
            fleet.run(trace)

    def test_fleet_metrics_exported_through_obs(self):
        fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
        result = fleet.run(market_stream(8, 40.0, seed=2, total_rate=1.0))
        assert result.metrics["fleet/slo_attainment"] == pytest.approx(
            result.slo_attainment
        )
        assert result.metrics["fleet/submitted"] == result.submitted
        assert len(result.shard_metrics) == 2


class TestFleetChaos:
    def test_shard_instance_loss_with_invariants(self, monkeypatch):
        # REPRO_INVARIANTS=1 arms the runtime checker in every shard the
        # moment it is built; fleet.run() then asserts a clean record.
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
        victim = fleet.shards[1].system
        victim.attach_faults(
            FaultPlan.of(InstanceFailure(at=10.0, instance="decode1"))
        )
        result = fleet.run(market_stream(12, 60.0, seed=31, total_rate=2.0))
        for shard in fleet.shards:
            assert shard.system.invariant_checker is not None
            assert shard.system.invariant_checker.violations == []
        total = result.rollup.total
        assert total.requests == result.submitted
        assert total.finished + total.failed + total.rejected == total.requests

    def test_faulted_shard_does_not_contaminate_others(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")

        def run(faulted):
            fleet = build_fleet(FleetConfig(shards=2, spec=small_spec()))
            if faulted:
                fleet.shards[1].system.attach_faults(
                    FaultPlan.of(InstanceFailure(at=5.0, instance="decode0"))
                )
            result = fleet.run(market_stream(12, 60.0, seed=31, total_rate=2.0))
            return result, fleet

        clean_result, _ = run(faulted=False)
        faulted_result, fleet = run(faulted=True)
        # Shard 0 never sees the fault: identical stats either way.
        assert (
            faulted_result.shard_stats[0].as_dict()
            == clean_result.shard_stats[0].as_dict()
        )
