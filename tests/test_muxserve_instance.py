"""Tests for the shared-GPU (MuxServe/dedicated) instance."""

import pytest

from repro.baselines import SharedGpuInstance
from repro.engine import Phase, Request
from repro.hardware import H800
from repro.models import get_model
from repro.sim import Environment
from repro.workload import TraceRequest

GiB = 1024**3


def make_request(request_id=0, model="Qwen-7B", arrival=0.0, inp=256, out=32):
    trace = TraceRequest(
        request_id=request_id,
        model=model,
        arrival=arrival,
        input_tokens=inp,
        output_tokens=out,
    )
    return Request(trace=trace, spec=get_model(model))


class TestSharedGpuInstance:
    def test_single_model_serves_to_completion(self):
        env = Environment()
        finished = []
        instance = SharedGpuInstance(
            env, H800, [get_model("Qwen-7B")], finished.append
        )
        request = make_request(0)
        instance.enqueue(request)
        env.run(until=20.0)
        assert finished == [request]
        assert request.phase is Phase.FINISHED
        assert request.generated_tokens == request.output_tokens

    def test_two_models_interleave_without_switch_cost(self):
        env = Environment()
        finished = []
        instance = SharedGpuInstance(
            env,
            H800,
            [get_model("Qwen-7B"), get_model("Yi-6B")],
            finished.append,
        )
        a = make_request(0, "Qwen-7B", out=64)
        b = make_request(1, "Yi-6B", out=64)
        instance.enqueue(a)
        instance.enqueue(b)
        env.run(until=20.0)
        assert len(finished) == 2
        # Multiplexing: both streams progressed concurrently — their
        # token windows overlap rather than running back to back.
        assert a.token_times[0] < b.token_times[-1]
        assert b.token_times[0] < a.token_times[-1]

    def test_colocation_memory_cap_enforced(self):
        env = Environment()
        big = get_model("Qwen-72B")  # 145 GB on an 80 GB GPU
        with pytest.raises(MemoryError):
            SharedGpuInstance(env, H800, [big], lambda r: None)

    def test_load_counts_waiting_and_running(self):
        env = Environment()
        instance = SharedGpuInstance(env, H800, [get_model("Qwen-7B")], lambda r: None)
        instance.enqueue(make_request(0, out=2000))
        instance.enqueue(make_request(1, out=2000))
        env.run(until=1.0)
        assert instance.load() == 2

    def test_busy_time_accrues(self):
        env = Environment()
        instance = SharedGpuInstance(env, H800, [get_model("Qwen-7B")], lambda r: None)
        instance.enqueue(make_request(0, out=500))
        env.run(until=5.0)
        assert instance.busy_time > 0
        assert 0 < instance.utilization(elapsed=5.0) <= 1.0

    def test_hosts(self):
        env = Environment()
        instance = SharedGpuInstance(env, H800, [get_model("Qwen-7B")], lambda r: None)
        assert instance.hosts("Qwen-7B")
        assert not instance.hosts("Yi-6B")
