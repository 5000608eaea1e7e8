"""Behavioural tests for PrefillInstance and DecodeInstance."""

import pytest

from repro.core import DEFAULT_SLO, DecodeBatch
from repro.core.instance import DecodeInstance, PrefillInstance
from repro.core.prefill_sched import PrefillGroup
from repro.engine import AegaeonEngine, EngineConfig, Phase, Request
from repro.engine.batching import MAX_BATCH_SIZE
from repro.hardware import H800, Node
from repro.memory import HostModelCache, SlabAllocator
from repro.models import get_model
from repro.sim import Environment
from repro.workload import TraceRequest

GiB = 1024**3
MiB = 1024**2


def make_engine(env, warm=("Qwen-7B", "Yi-6B", "InternLM2.5-7B")):
    node = Node(env, H800, gpu_count=1)
    cache = HostModelCache(640 * GiB)
    for name in warm:
        cache.insert(name, get_model(name).weight_bytes)
    cpu_kv = SlabAllocator(320 * GiB, 256 * MiB)
    return AegaeonEngine(
        env, node, node.gpus, cache, cpu_kv, pre_initialized=True
    )


def make_request(request_id=0, model="Qwen-7B", arrival=0.0, inp=256, out=64):
    trace = TraceRequest(
        request_id=request_id,
        model=model,
        arrival=arrival,
        input_tokens=inp,
        output_tokens=out,
    )
    return Request(trace=trace, spec=get_model(model))


class TestPrefillInstance:
    def test_executes_group_and_hands_off(self):
        env = Environment()
        engine = make_engine(env)
        handed = []
        instance = PrefillInstance(env, engine, handed.append)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        request = make_request(0)
        group.add(request)
        instance.groups.append(group)
        instance.kick()
        env.run(until=10.0)
        assert handed == [request]
        assert request.phase is Phase.DECODING
        assert request.generated_tokens == 1  # the prefill token
        assert request.prefill_end is not None
        assert request.kv.location == "cpu"  # offloaded for the decoder

    def test_groups_amortize_switching(self):
        env = Environment()
        engine = make_engine(env)
        handed = []
        instance = PrefillInstance(env, engine, handed.append)
        group_a = PrefillGroup(spec=get_model("Qwen-7B"))
        for request_id in range(3):
            group_a.add(make_request(request_id, "Qwen-7B"))
        group_b = PrefillGroup(spec=get_model("Yi-6B"))
        group_b.add(make_request(3, "Yi-6B"))
        instance.groups.extend([group_a, group_b])
        instance.kick()
        env.run(until=20.0)
        assert len(handed) == 4
        # One switch to Qwen, one to Yi — not one per request.
        assert len(engine.scale_history) == 2

    def test_fcfs_within_group(self):
        env = Environment()
        engine = make_engine(env)
        handed = []
        instance = PrefillInstance(env, engine, handed.append)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        for request_id in range(4):
            group.add(make_request(request_id))
        instance.groups.append(group)
        instance.kick()
        env.run(until=20.0)
        assert [r.request_id for r in handed] == [0, 1, 2, 3]

    def test_idle_instance_wakes_on_kick(self):
        env = Environment()
        engine = make_engine(env)
        handed = []
        instance = PrefillInstance(env, engine, handed.append)
        env.run(until=5.0)  # idles

        group = PrefillGroup(spec=get_model("Qwen-7B"))
        group.add(make_request(0, arrival=5.0))
        instance.groups.append(group)
        instance.kick()
        env.run(until=15.0)
        assert len(handed) == 1

    def test_load_estimate_counts_switch(self):
        env = Environment()
        engine = make_engine(env)
        instance = PrefillInstance(env, engine, lambda r: None)
        group = PrefillGroup(spec=get_model("Qwen-7B"))
        group.add(make_request(0))
        estimate = instance.estimate_group_time(group, previous=None)
        assert estimate > engine.base_switch_time(get_model("Qwen-7B"))


def prefilled_request(env, engine, request):
    """Stage a request as if a prefill instance had produced it."""
    from repro.models import kv_shape
    from repro.transfer import RequestKv

    request.kv = RequestKv(
        request_id=request.request_id,
        shape=kv_shape(request.spec),
        tokens=request.input_tokens,
    )
    request.kv.cpu_blocks = engine.kv.cpu_cache.alloc(
        request.kv.shape, request.kv.block_bytes, request.kv.block_count
    )
    request.kv.location = "cpu"
    request.record_tokens([env.now])
    request.phase = Phase.DECODING
    request.decode_enqueue = env.now
    return request


class TestDecodeInstance:
    def test_decodes_to_completion(self):
        env = Environment()
        engine = make_engine(env)
        finished = []
        instance = DecodeInstance(env, engine, DEFAULT_SLO, finished.append)
        request = prefilled_request(env, engine, make_request(0, out=32))
        batch = DecodeBatch(spec=request.spec, requests=[request])
        instance.work_list.append(batch)
        instance.kick()
        env.run(until=30.0)
        assert finished == [request]
        assert request.finished
        assert request.generated_tokens == 32
        assert request.finish_time is not None

    def test_round_robin_between_models(self):
        env = Environment()
        engine = make_engine(env)
        finished = []
        instance = DecodeInstance(env, engine, DEFAULT_SLO, finished.append)
        for index, model in enumerate(["Qwen-7B", "Yi-6B"]):
            request = prefilled_request(env, engine, make_request(index, model, out=128))
            instance.work_list.append(
                DecodeBatch(spec=request.spec, requests=[request])
            )
        instance.kick()
        env.run(until=120.0)
        assert len(finished) == 2
        # Both models were actually decoded (switches happened).
        switched_to = {record.model_to for record in engine.scale_history}
        assert {"Qwen-7B", "Yi-6B"} <= switched_to
        assert instance.rounds >= 2

    def test_tokens_respect_step_spacing(self):
        env = Environment()
        engine = make_engine(env)
        finished = []
        instance = DecodeInstance(env, engine, DEFAULT_SLO, finished.append)
        request = prefilled_request(env, engine, make_request(0, out=64))
        instance.work_list.append(DecodeBatch(spec=request.spec, requests=[request]))
        instance.kick()
        env.run(until=30.0)
        times = request.token_times
        gaps = [b - a for a, b in zip(times[1:], times[2:])]
        # Within-turn spacing equals a decode step (few ms), far under TBT.
        assert all(0 < gap < DEFAULT_SLO.tbt for gap in gaps if gap > 1e-9)

    def test_kv_freed_after_completion(self):
        env = Environment()
        engine = make_engine(env)
        instance = DecodeInstance(env, engine, DEFAULT_SLO, lambda r: None)
        request = prefilled_request(env, engine, make_request(0, out=16))
        instance.work_list.append(DecodeBatch(spec=request.spec, requests=[request]))
        instance.kick()
        env.run(until=30.0)
        assert engine.gpu_kv_cache.held_bytes == 0

    def test_batch_capacity_positive_and_bounded(self):
        env = Environment()
        engine = make_engine(env)
        instance = DecodeInstance(env, engine, DEFAULT_SLO, lambda r: None)
        for name in ["Qwen-7B", "Qwen-72B"]:
            capacity = instance.batch_capacity(get_model(name))
            assert 1 <= capacity <= MAX_BATCH_SIZE
        # The big-KV model admits fewer requests per batch.
        assert instance.batch_capacity(get_model("Qwen-72B")) <= instance.batch_capacity(
            get_model("Qwen-7B")
        )

    def test_single_model_uses_qmax_turns(self):
        env = Environment()
        engine = make_engine(env)
        instance = DecodeInstance(env, engine, DEFAULT_SLO, lambda r: None)
        request = prefilled_request(env, engine, make_request(0, out=2000))
        instance.work_list.append(DecodeBatch(spec=request.spec, requests=[request]))
        instance.kick()
        env.run(until=10.0)
        # No other model: no switching at all beyond the initial scale.
        switches = [r for r in engine.scale_history if r.model_from is not None]
        assert len(switches) == 0
