"""Tests for the scaling-efficient engine (§5, Figures 7/8/10)."""

import pytest

from repro.engine import (
    AegaeonEngine,
    DEFAULT_INIT_COSTS,
    EngineConfig,
    ScaleRecord,
)
from repro.hardware import H800, Node
from repro.memory import HostModelCache, SlabAllocator
from repro.models import get_model
from repro.sim import Environment
from repro.transfer import CudaEvent

GiB = 1024**3
MiB = 1024**2


def make_engine(env, config=EngineConfig(), warm_models=(), gpu_count=1):
    node = Node(env, H800, gpu_count=max(gpu_count, config.tp))
    cache = HostModelCache(capacity_bytes=640 * GiB)
    for name in warm_models:
        cache.insert(name, get_model(name.split("#")[0]).weight_bytes // config.tp)
    cpu_kv = SlabAllocator(region_bytes=320 * GiB, slab_bytes=256 * MiB)
    return AegaeonEngine(
        env,
        node,
        node.gpus[: config.tp],
        cache,
        cpu_kv,
        config=config,
    )


def run_scale(env, engine, model_name):
    spec = get_model(model_name)

    def proc():
        record = yield from engine.scale_to(spec)
        return record

    return env.run(until=env.process(proc()))


class TestInitCosts:
    def test_figure7_headline_26_9s(self):
        # Fresh initialization of a 13B model at TP=2 totals 26.9 s.
        model = get_model("Llama-13B")
        total = DEFAULT_INIT_COSTS.fresh_total(model, tp=2)
        assert total == pytest.approx(26.9, abs=0.5)

    def test_stage_composition(self):
        stages = DEFAULT_INIT_COSTS.fresh_stages(get_model("Llama-13B"), tp=2)
        assert set(stages) == {
            "dist_executor_init",
            "profiling",
            "model_load",
            "kv_init",
            "misc",
        }
        assert stages["model_load"] == pytest.approx(4.6, abs=0.2)


class TestScaleTo:
    def test_first_boot_pays_fresh_init(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B"])
        record = run_scale(env, engine, "Qwen-7B")
        assert "dist_executor_init" in record.stages
        assert engine.current_model.name == "Qwen-7B"

    def test_reused_switch_is_subsecond(self):
        # After boot, optimized switches take under a second (§7.3).
        env = Environment()
        engine = make_engine(
            env,
            config=EngineConfig(prefetch=False),
            warm_models=["Qwen-7B", "Yi-6B"],
        )
        run_scale(env, engine, "Qwen-7B")
        record = run_scale(env, engine, "Yi-6B")
        assert record.total < 1.0
        assert "gc" not in record.stages
        assert record.stages["reinit"] == pytest.approx(0.15)

    def test_unoptimized_switch_takes_tens_of_seconds(self):
        # §3.2: scaling down and up a 13B vLLM instance unoptimized
        # "takes tens of seconds".
        env = Environment()
        engine = make_engine(
            env, config=EngineConfig.unoptimized(), warm_models=["Llama-13B", "Qwen-14B"]
        )
        run_scale(env, engine, "Llama-13B")
        record = run_scale(env, engine, "Qwen-14B")
        assert record.total > 20.0
        assert "gc" in record.stages
        assert "dist_executor_init" in record.stages

    def test_optimizations_remove_97_percent(self):
        # The headline: T3 is ~97% below T0 for a same-size switch.
        def switch_cost(config):
            env = Environment()
            engine = make_engine(
                env, config=config, warm_models=["Llama-13B", "Qwen-14B"]
            )
            run_scale(env, engine, "Llama-13B")
            return run_scale(env, engine, "Qwen-14B").total

        t0 = switch_cost(EngineConfig.unoptimized())
        t3 = switch_cost(EngineConfig(prefetch=False))
        assert 1 - t3 / t0 > 0.95

    def test_noop_switch(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B"])
        run_scale(env, engine, "Qwen-7B")
        record = run_scale(env, engine, "Qwen-7B")
        assert record.total == 0.0
        assert record.stages == {}
        assert len(engine.scale_history) == 1  # a no-op is not a switch

    def test_scale_history_recorded(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        run_scale(env, engine, "Yi-6B")
        assert len(engine.scale_history) == 2
        assert engine.scale_history[1].model_from == "Qwen-7B"


class TestStageRecords:
    """Each switch path's exact ``stages`` mapping: labels in execution
    order, and the seconds the engine measured, rebuilt here with the
    clock's own float arithmetic (``now + delay`` per timeout)."""

    FRESH = (
        ("dist_executor_init", DEFAULT_INIT_COSTS.dist_executor(1)),
        ("profiling", DEFAULT_INIT_COSTS.profiling),
        ("kv_init", DEFAULT_INIT_COSTS.kv_pin_init),
        ("misc", DEFAULT_INIT_COSTS.misc),
    )

    @staticmethod
    def after(start, *delays):
        for delay in delays:
            start = start + delay
        return start

    def test_fresh_boot(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B"])
        record = run_scale(env, engine, "Qwen-7B")
        load_start = self.after(record.started, *(cost for _, cost in self.FRESH))
        assert record.stages == {
            **dict(self.FRESH), "model_load": record.ended - load_start,
        }
        assert list(record.stages) == [name for name, _ in self.FRESH] + ["model_load"]
        assert record.model_from is None and not record.prefetch_hit

    def test_reinit_and_quick_load(self):
        env = Environment()
        engine = make_engine(
            env, config=EngineConfig(prefetch=False), warm_models=["Qwen-7B", "Yi-6B"]
        )
        run_scale(env, engine, "Qwen-7B")
        record = run_scale(env, engine, "Yi-6B")
        reinit_end = self.after(record.started, DEFAULT_INIT_COSTS.reconfigure)
        assert list(record.stages) == ["reinit", "model_load"]
        assert record.stages == {
            "reinit": reinit_end - record.started,
            "model_load": record.ended - reinit_end,
        }

    def test_prefetch_hit(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        yi = get_model("Yi-6B")
        assert engine.prefetch(yi)
        env.run(until=env.now + 5.0)
        record = run_scale(env, engine, "Yi-6B")
        reinit_end = self.after(record.started, DEFAULT_INIT_COSTS.reconfigure)
        promote = engine.shard_bytes(yi) / H800.effective_hbm_bandwidth
        assert list(record.stages) == ["reinit", "model_promote"]
        assert record.stages == {
            "reinit": reinit_end - record.started,
            "model_promote": self.after(reinit_end, promote) - reinit_end,
        }
        assert record.prefetch_hit

    def test_prefetch_wait(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        assert engine.prefetch(get_model("Yi-6B"))
        done = engine._prefetched[2]
        record = run_scale(env, engine, "Yi-6B")
        reinit_end = self.after(record.started, DEFAULT_INIT_COSTS.reconfigure)
        assert list(record.stages) == ["reinit", "prefetch_wait", "model_promote"]
        # Both weight stages are timed from the weights stage's start,
        # so the promote's seconds include the wait.
        assert record.stages == {
            "reinit": reinit_end - record.started,
            "prefetch_wait": done.completed_at - reinit_end,
            "model_promote": record.ended - reinit_end,
        }

    def test_naive_model_load(self):
        env = Environment()
        engine = make_engine(
            env, config=EngineConfig.unoptimized(), warm_models=["Qwen-7B", "Yi-6B"]
        )
        run_scale(env, engine, "Qwen-7B")
        record = run_scale(env, engine, "Yi-6B")
        # Nothing was in flight: the blocking drain returns at once.
        gc_end = self.after(record.started, DEFAULT_INIT_COSTS.gc_pass)
        load_start = self.after(gc_end, *(cost for _, cost in self.FRESH))
        assert list(record.stages) == (
            ["kv_out_sync", "gc"] + [name for name, _ in self.FRESH] + ["model_load"]
        )
        assert record.stages == {
            "kv_out_sync": 0.0,
            "gc": gc_end - record.started,
            **dict(self.FRESH),
            "model_load": record.ended - load_start,
        }
        assert record.stages["model_load"] == pytest.approx(
            DEFAULT_INIT_COSTS.naive_load(get_model("Yi-6B"), 1), rel=0.01
        )

    def test_record_is_slotted(self):
        record = ScaleRecord(model_from="a", model_to="b", started=1.0, ended=2.5)
        assert not hasattr(record, "__dict__")
        assert record.stages == {} and record.total == 1.5
        with pytest.raises(AttributeError):
            record.note = "x"


class TestPrefetch:
    def test_prefetch_hit_is_near_instant(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        assert engine.prefetch(get_model("Yi-6B"))
        env.run(until=env.now + 5.0)  # let the prefetch stream drain
        record = run_scale(env, engine, "Yi-6B")
        assert record.prefetch_hit
        assert record.total < 0.2

    def test_switch_waits_for_an_in_flight_prefetch(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        yi = get_model("Yi-6B")
        assert engine.prefetch(yi)
        assert engine.prefetch(yi)  # already in flight
        done = engine._prefetched[2]
        assert isinstance(done, CudaEvent) and not done.query()
        record = run_scale(env, engine, "Yi-6B")
        assert record.prefetch_hit
        assert record.stages["prefetch_wait"] > 0
        assert record.ended >= done.completed_at
        assert engine._prefetched is None
        # The checkpoint's pin went with the last chunk.
        assert engine.quick_loader.model_cache._entries["Yi-6B"].pins == 0

    def test_prefetch_requires_cached_checkpoint(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B"])
        run_scale(env, engine, "Qwen-7B")
        assert not engine.prefetch(get_model("Yi-6B"))  # not in host cache

    def test_prefetch_needs_buffer_space(self):
        env = Environment()
        config = EngineConfig(weight_buffer_bytes=18 * GiB)  # one 7B shard only
        engine = make_engine(env, config=config, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        assert not engine.prefetch(get_model("Yi-6B"))

    def test_wrong_prefetch_abandoned(self):
        env = Environment()
        engine = make_engine(
            env, warm_models=["Qwen-7B", "Yi-6B", "InternLM2.5-7B"]
        )
        run_scale(env, engine, "Qwen-7B")
        engine.prefetch(get_model("Yi-6B"))
        env.run(until=env.now + 5.0)
        record = run_scale(env, engine, "InternLM2.5-7B")
        assert not record.prefetch_hit
        assert engine.current_model.name == "InternLM2.5-7B"
        # Buffer did not leak the abandoned prefetch.
        assert engine.weights.live_bytes == engine.shard_bytes(
            get_model("InternLM2.5-7B")
        )


class TestExecution:
    def test_prefill_requires_active_model(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B"])
        with pytest.raises(RuntimeError):
            env.process(engine.prefill(get_model("Qwen-7B"), [128]))
            env.run()

    def test_prefill_advances_clock(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B"])
        spec = get_model("Qwen-7B")
        run_scale(env, engine, "Qwen-7B")

        def proc():
            duration = yield from engine.prefill(spec, [1024])
            return duration

        duration = env.run(until=env.process(proc()))
        assert duration == pytest.approx(
            engine.latency_model(spec).prefill_time([1024])
        )
        assert engine.busy_time == pytest.approx(duration)

    def test_tp_engine_uses_shards(self):
        env = Environment()
        config = EngineConfig(tp=4, weight_buffer_bytes=60 * GiB)
        engine = make_engine(env, config=config, warm_models=["Qwen-72B"])
        spec = get_model("Qwen-72B")
        assert engine.shard_bytes(spec) == spec.weight_bytes // 4
        record = run_scale(env, engine, "Qwen-72B")
        assert engine.current_model.name == "Qwen-72B"
        assert record.total > 0

    def test_estimate_switch_matches_loader(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        run_scale(env, engine, "Qwen-7B")
        spec = get_model("Yi-6B")
        estimate = engine.estimate_switch_time(spec)
        assert estimate == pytest.approx(
            engine.quick_loader.load_time(spec.weight_bytes), rel=0.01
        )
        assert engine.estimate_switch_time(get_model("Qwen-7B")) == 0.0
