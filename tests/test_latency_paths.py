"""Eq. 5-6 predictions at the sizes that once chose a second code path.

The prefill group estimate, the per-round decode step times and both
halves of ServerlessLLM's backlog estimate used to switch to numpy
above a size threshold (8 prompts, 4 batches, 8 waiting, 8 running),
and ``LatencyModel.prefill_time`` reduced 16 or more prompts in int64.
Every prediction now takes the memoized scalar methods.  These tests
pin what the thresholds served: two serves that reach each of those
sizes (invariant checker armed), checked against the step count and
disposition digest recorded while the numpy paths were live, and the
batch methods against the scalar ones, bit for bit.
"""

import hashlib

import pytest

from repro.baselines.serverless_llm import _ServerlessInstance
from repro.core import AegaeonConfig, SystemConfig, SystemSpec, build_system
from repro.core.instance import PrefillInstance
from repro.engine import AegaeonEngine, EngineConfig
from repro.hardware import A10, H20, H800, Node
from repro.memory import HostModelCache, SlabAllocator
from repro.models import LatencyModel, get_model, market_mix
from repro.policy.decode_turn import WeightedRoundPolicy
from repro.sim import Environment
from repro.workload import materialize_trace, sharegpt

from .outcomes import request_rows

GiB = 1024**3


def disposition_digest(result) -> str:
    """Every request's phase, prefill start, finish and token times."""
    h = hashlib.sha256()
    for row in request_rows(result.requests):
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


@pytest.fixture
def tally(monkeypatch):
    """``wrap(cls, name, count)``: call ``count(*args)`` before each call."""

    def wrap(cls, name, count):
        original = getattr(cls, name)

        def counted(*args):
            count(*args)
            return original(*args)

        monkeypatch.setattr(cls, name, counted)

    return wrap


class TestServesAtThresholdSizes:
    def test_serverless_backlog_with_eight_waiting_and_running(self, tally):
        sizes = {"calls": 0, "waiting": 0, "running": 0}

        def count(instance):
            sizes["calls"] += 1
            sizes["waiting"] += len(instance.waiting) >= 8
            batcher = instance.batcher
            sizes["running"] += batcher is not None and len(batcher.running) >= 8

        tally(_ServerlessInstance, "estimated_backlog", count)
        env = Environment()
        config = SystemConfig(cluster="h800-pair")
        spec = SystemSpec(system="serverless-llm", config=config, invariants=True)
        system = build_system(spec, env)
        trace = materialize_trace(market_mix(6), [0.5] * 6, sharegpt(), 30.0, seed=5)
        result = system.serve(trace)
        assert len(trace) == 108
        assert result.drained and result.finished_requests == 108
        assert sizes == {"calls": 146, "waiting": 104, "running": 4}
        assert env.steps_executed == 1061
        assert disposition_digest(result) == "3dd49dd8bad6ae4f"

    def test_aegaeon_groups_of_eight_and_rounds_of_four(self, tally):
        sizes = {"groups": 0, "rounds": 0}

        def count_group(instance, group, previous):
            sizes["groups"] += len(group.requests) >= 8

        def count_round(policy, batches, step_times, switch_cost, slo):
            sizes["rounds"] += len(batches) >= 4

        tally(PrefillInstance, "estimate_group_time", count_group)
        tally(WeightedRoundPolicy, "quotas", count_round)
        env = Environment()
        config = AegaeonConfig(
            prefill_instances=1, decode_instances=1, cluster="h800-pair"
        )
        spec = SystemSpec(system="aegaeon", config=config, invariants=True)
        system = build_system(spec, env)
        trace = materialize_trace(market_mix(8), [1.0] * 8, sharegpt(), 20.0, seed=5)
        result = system.serve(trace)
        assert len(trace) == 167
        assert result.drained and result.finished_requests == 167
        assert sizes == {"groups": 19, "rounds": 8}
        assert env.steps_executed == 3067
        assert disposition_digest(result) == "eadfe187cc4c6050"


# -- batch methods vs scalar methods ------------------------------------------
GPUS = [H800, A10, H20]
GPU_IDS = ["H800", "A10", "H20"]
LENGTHS = [1, 2, 17, 128, 511, 512, 1000, 4095, 8192, 12345]
DECODE_POINTS = [(0, 0), (0, 500), (1, 1), (3, 700), (17, 40000), (64, 1), (256, 9)]


def hexes(values):
    return [float(value).hex() for value in values]


def prompts(count):
    return [LENGTHS[i % len(LENGTHS)] + 3 * i for i in range(count)]


@pytest.mark.parametrize("gpu", GPUS, ids=GPU_IDS)
@pytest.mark.parametrize("tp", [1, 2])
class TestBatchEqualsScalar:
    @pytest.fixture
    def model(self, gpu, tp):
        return LatencyModel(get_model("Llama-13B"), gpu, tp=tp)

    def test_prefill_time_batch(self, model):
        expected = [model.prefill_time_single(n) for n in LENGTHS]
        assert hexes(model.prefill_time_batch(LENGTHS)) == hexes(expected)

    def test_decode_time_batch_including_empty_batches(self, model):
        sizes = [size for size, _ in DECODE_POINTS]
        context = [ctx for _, ctx in DECODE_POINTS]
        expected = [model.decode_step_time(size, ctx) for size, ctx in DECODE_POINTS]
        assert expected[0] == expected[1] == 0.0
        assert hexes(model.decode_time_batch(sizes, context)) == hexes(expected)

    def test_estimate_service_time_batch(self, model):
        outputs = [1, 7, 300, 64, 2, 999, 0, 513, 31, 4000]
        for decode_batch in (1, 4, 9):
            expected = [
                model.estimate_service_time(n, out, decode_batch)
                for n, out in zip(LENGTHS, outputs)
            ]
            got = model.estimate_service_time_batch(LENGTHS, outputs, decode_batch)
            assert hexes(got) == hexes(expected)

    @pytest.mark.parametrize("count", [15, 16, 17, 40])
    def test_prefill_time_of_many_prompts(self, model, count):
        lengths = prompts(count)
        t = sum(lengths)
        t2 = sum(n * n for n in lengths)
        expected = (
            model._prefill_per_token * t
            + model._prefill_per_sq_token * t2
            + model._c3
        )
        assert model.prefill_time(lengths).hex() == expected.hex()

    def test_engine_batch_methods_apply_the_perf_factor(self, gpu, tp):
        env = Environment()
        node = Node(env, gpu, gpu_count=tp)
        engine = AegaeonEngine(
            env, node, node.gpus, HostModelCache(64 * GiB),
            SlabAllocator(GiB, 64 * 1024**2),
            config=EngineConfig(tp=tp, weight_buffer_bytes=8 * GiB),
            pre_initialized=True,
        )
        engine.perf_factor = 1.7
        spec = get_model("Llama-13B")
        prefill = [engine.latency_model(spec).prefill_time_single(n) * 1.7 for n in LENGTHS]
        assert hexes(engine.prefill_time_batch(spec, LENGTHS)) == hexes(prefill)
        sizes = [size for size, _ in DECODE_POINTS]
        context = [ctx for _, ctx in DECODE_POINTS]
        decode = [engine.decode_step_time(spec, size, ctx) for size, ctx in DECODE_POINTS]
        assert hexes(engine.decode_time_batch(spec, sizes, context)) == hexes(decode)
