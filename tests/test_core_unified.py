"""Tests for the unified (non-disaggregated) scheduling foils (§4.1)."""

from dataclasses import replace

import pytest

from repro.core import DECODE_FIRST, PREFILL_FIRST, SloSpec, SystemConfig, UnifiedServer
from repro.hardware import Cluster, H800
from repro.models import get_model
from repro.sim import Environment
from repro.workload import Trace, TraceRequest


def make_trace(pattern, inp=1024, out=128):
    """pattern: list of (model_tag, arrival)."""
    base = get_model("Qwen-7B")
    tags = sorted({tag for tag, _ in pattern})
    models = tuple(replace(base, name=f"model-{tag}") for tag in tags)
    requests = tuple(
        TraceRequest(
            request_id=index,
            model=f"model-{tag}",
            arrival=arrival,
            input_tokens=inp,
            output_tokens=out,
        )
        for index, (tag, arrival) in enumerate(pattern)
    )
    horizon = max(arrival for _, arrival in pattern) + 1.0
    return Trace(requests=requests, models=models, horizon=horizon)


def run_policy(policy, trace, gpus=1, slo=SloSpec(ttft=2.0, tbt=0.1)):
    env = Environment()
    server = UnifiedServer(
        env, Cluster.homogeneous(env, H800, 1, gpus), SystemConfig(slo=slo), policy=policy
    )
    return server.serve(trace)


class TestUnifiedPolicies:
    def test_invalid_policy_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            UnifiedServer(env, Cluster.homogeneous(env, H800, 1, 1), policy="both_first")

    def test_completes_all_requests(self):
        trace = make_trace([("A", 0.0), ("B", 0.5), ("A", 1.0)])
        for policy in (PREFILL_FIRST, DECODE_FIRST):
            result = run_policy(policy, trace)
            assert result.finished_requests == 3, policy

    def test_prefill_first_prioritizes_new_arrivals(self):
        # A long decode is running; a new prompt arrives.  Prefill-first
        # serves the prompt's first token quickly.
        trace = make_trace([("A", 0.0), ("B", 1.0)], out=400)
        result = run_policy(PREFILL_FIRST, trace)
        ttft_b = result.ttfts()[1]
        assert ttft_b < 3.0

    def test_decode_first_delays_new_arrivals(self):
        # Same scenario under decode-first: B waits for A's whole output.
        trace = make_trace([("A", 0.0), ("B", 1.0)], out=400)
        fast = run_policy(PREFILL_FIRST, trace).ttfts()[1]
        slow = run_policy(DECODE_FIRST, trace).ttfts()[1]
        assert slow > fast + 1.0

    def test_prefill_first_starves_decode_under_burst(self):
        # A stream of arriving prompts keeps preempting A's decoding:
        # its tokens stall compared to decode-first.
        pattern = [("A", 0.0)] + [(tag, 0.5 + i * 0.4) for i, tag in enumerate("BCBCBC")]
        trace = make_trace(pattern, inp=2048, out=200)

        def max_gap(result):
            times = result.requests[0].token_times
            return max(b - a for a, b in zip(times, times[1:]))

        gap_prefill_first = max_gap(run_policy(PREFILL_FIRST, trace))
        gap_decode_first = max_gap(run_policy(DECODE_FIRST, trace))
        assert gap_prefill_first > gap_decode_first

    def test_label_reflects_policy(self):
        env = Environment()
        server = UnifiedServer(env, Cluster.homogeneous(env, H800, 1, 1), policy=PREFILL_FIRST)
        assert "prefill_first" in server.label
