"""Tests for the analytical latency model (paper Appendix A.2)."""

import pytest

from repro.hardware import A10, H800
from repro.models import (
    NAIVE_LOAD_BANDWIDTH,
    PCIE_BETA,
    LatencyModel,
    get_model,
    switch_time,
)


@pytest.fixture
def llama13b():
    return get_model("Llama-13B")


@pytest.fixture
def qwen7b():
    return get_model("Qwen-7B")


class TestSwitchTime:
    def test_eq4_paper_example(self, llama13b):
        # Paper §4.2: a 13B model over PCIe 4.0 takes at least
        # 26GB / 32GBps = 0.8125 s; with beta = 0.625 the profiled
        # estimate is 26GB / 20GBps = 1.3 s.
        time = switch_time(llama13b, H800, tp=1)
        assert time == pytest.approx(
            llama13b.weight_bytes / (32e9 * PCIE_BETA), rel=1e-9
        )
        assert 1.2 < time < 1.4

    def test_tp_parallelizes_loading(self, llama13b):
        # Figure 7 microbenchmark context: 13B at TP=2 loads its two
        # shards in parallel, ~0.65 s with the optimized loader.
        time = switch_time(llama13b, H800, tp=2)
        assert 0.6 < time < 0.7

    def test_naive_loader_much_slower(self, llama13b):
        # The unoptimized vLLM path achieves 2.83 GB/s: ~4.6 s for the
        # 13 GB per-GPU shard at TP=2 (Figure 7, right).
        shard_bytes = llama13b.weight_bytes / 2
        naive = shard_bytes / NAIVE_LOAD_BANDWIDTH
        assert 4.2 < naive < 5.0


class TestPrefill:
    def test_empty_batch_is_free(self, qwen7b):
        model = LatencyModel(qwen7b, H800)
        assert model.prefill_time([]) == 0.0

    def test_scales_superlinearly_with_length(self, qwen7b):
        model = LatencyModel(qwen7b, H800)
        t1 = model.prefill_time([1024])
        t2 = model.prefill_time([2048])
        assert t2 > 1.9 * (t1 - model.prefill_overhead)

    def test_below_one_second_regularly(self, llama13b):
        # §4.2: "the time for a prefill batch regularly falls below one
        # second on contemporary GPUs".
        model = LatencyModel(llama13b, H800)
        assert model.prefill_time([2048]) < 1.0

    def test_comparable_to_autoscaling(self, llama13b):
        # §4.2's premise: prefill batch time and switch time are the
        # same order of magnitude (both ~1 s scale).
        model = LatencyModel(llama13b, H800)
        prefill = model.prefill_time([4096])
        switch = model.switch_time()
        assert 0.05 < prefill / switch < 5.0

    def test_batch_equals_concatenation_in_linear_term(self, qwen7b):
        model = LatencyModel(qwen7b, H800, prefill_overhead=0.0)
        together = model.prefill_time([512, 512])
        apart = model.prefill_time([512]) + model.prefill_time([512])
        # Same linear+attention cost when lengths are equal.
        assert together == pytest.approx(apart)

    def test_a10_slower_than_h800(self, qwen7b):
        fast = LatencyModel(qwen7b, H800).prefill_time([1024])
        slow = LatencyModel(qwen7b, A10).prefill_time([1024])
        assert slow > 3 * fast


class TestDecode:
    def test_tens_of_milliseconds(self, llama13b):
        # §2.1/§4.3: a decoding step is "typically small (e.g., tens of
        # milliseconds)" against a 100 ms TBT target.
        model = LatencyModel(llama13b, H800)
        step = model.decode_step_time(batch_size=4, context_tokens=4 * 1024)
        assert 0.005 < step < 0.1

    def test_zero_batch_is_free(self, qwen7b):
        model = LatencyModel(qwen7b, H800)
        assert model.decode_step_time(0, 0) == 0.0

    def test_grows_with_context(self, qwen7b):
        model = LatencyModel(qwen7b, H800)
        small = model.decode_step_time(4, 1024)
        large = model.decode_step_time(4, 64 * 1024)
        assert large > small

    def test_memory_bound_at_small_batch(self, llama13b):
        # Weight streaming dominates: batch 1 vs batch 8 differ by
        # much less than 8x.
        model = LatencyModel(llama13b, H800)
        b1 = model.decode_step_time(1, 1024)
        b8 = model.decode_step_time(8, 8 * 1024)
        assert b8 < 2.0 * b1

    def test_compute_bound_at_huge_batch(self, qwen7b):
        model = LatencyModel(qwen7b, H800)
        b1 = model.decode_step_time(1, 512)
        b512 = model.decode_step_time(512, 512 * 512)
        assert b512 > 2.0 * b1

    def test_a10_meets_loose_tbt_only(self, qwen7b):
        # §7.4: 7B decode on A10 is workable against a 100 ms TBT but
        # visibly tighter than on H800.
        step = LatencyModel(qwen7b, A10).decode_step_time(4, 4096)
        assert 0.02 < step < 0.1


class TestServiceTime:
    def test_realistic_sharegpt_scale(self, qwen7b):
        # Theorem 3.1's production fit uses T = 16.79 s; a ShareGPT-like
        # request (~250 in, ~250 out) should land within a small factor.
        model = LatencyModel(qwen7b, H800)
        service = model.estimate_service_time(250, 250)
        assert 2.0 < service < 60.0

    def test_monotone_in_output_length(self, qwen7b):
        model = LatencyModel(qwen7b, H800)
        short = model.estimate_service_time(256, 64)
        long = model.estimate_service_time(256, 512)
        assert long > short

