"""Latency predictions are pure: nothing is memoized, and every path
agrees bit for bit.

Eq. 5 is computed directly on every call: ``prefill_time`` folds the
batch in ``_prefill_uncached`` and ``prefill_time_single`` writes out
that expression for one prompt (``t = n``, ``t2 = n * n``, both exact).
So a single prediction, a batch of one, a repeated call and a fresh
instance's first call agree to full precision — no approx, exact
``==`` — across every GPU preset and TP degree.  ``decode_step_time``
computes Eq. 6 on every call and must be just as pure.  A model keeps
no state that grows with the predictions it answers.
"""

import tracemalloc

import pytest

from repro.hardware import A10, H20, H800
from repro.models import LatencyModel, get_model
from repro.models.latency import FLASH_ATTENTION_BLOCK

GPUS = [H800, A10, H20]
GPU_IDS = ["H800", "A10", "H20"]
TPS = [1, 2, 4]

PREFILL_BATCHES = [
    [128],
    [512, 256],
    [1024, 32, 777],
    [2048, 2048, 2048, 2048],
    [1, 8192],
]
PREFILL_LENGTHS = (1, 64, 1000, 8192, 32768)
DECODE_POINTS = [
    (1, 128),
    (4, 4096),
    (16, 32768),
    (32, 1),
    (7, 12345),
]


@pytest.fixture
def spec():
    # 40 attention heads: shards evenly at every TP degree under test.
    return get_model("Llama-13B")


def appendix_prefill(model: LatencyModel, lengths) -> float:
    """Appendix A.2's prefill form, unfolded:
    ``C1 * (4*t*h^2 + 2*t*h*m) + C2 * 3*h*t2 / b + C3``."""
    h = model.model.hidden_size
    m = model.model.ffn_intermediate
    t = sum(lengths)
    t2 = sum(n * n for n in lengths)
    return (
        model._c1 * (4 * t * h * h + 2 * t * h * m)
        + model._c2 * 3 * h * t2 / FLASH_ATTENTION_BLOCK
        + model._c3
    )


@pytest.mark.parametrize("gpu", GPUS, ids=GPU_IDS)
@pytest.mark.parametrize("tp", TPS)
class TestMemoizationExactness:
    def test_prefill_cached_equals_uncached(self, spec, gpu, tp):
        # Repeated calls on one instance and a fresh instance's first
        # calls agree exactly: there is no cache to differ from.
        warm = LatencyModel(spec, gpu, tp=tp)
        first = [warm.prefill_time(batch) for batch in PREFILL_BATCHES]
        repeat = [warm.prefill_time(batch) for batch in PREFILL_BATCHES]
        fresh = LatencyModel(spec, gpu, tp=tp)
        again = [fresh.prefill_time(batch) for batch in PREFILL_BATCHES]
        assert first == repeat == again

    def test_decode_cached_equals_uncached(self, spec, gpu, tp):
        # Repeated calls on one instance, in another order, and a fresh
        # instance's calls must all agree exactly.
        warm = LatencyModel(spec, gpu, tp=tp)
        first = [warm.decode_step_time(b, c) for b, c in DECODE_POINTS]
        repeat = [warm.decode_step_time(b, c) for b, c in reversed(DECODE_POINTS)]
        fresh = LatencyModel(spec, gpu, tp=tp)
        again = [fresh.decode_step_time(b, c) for b, c in DECODE_POINTS]
        assert first == repeat[::-1] == again
        assert list(warm.decode_time_batch(*zip(*DECODE_POINTS))) == first

    def test_prefill_single_matches_batch_of_one(self, spec, gpu, tp):
        model = LatencyModel(spec, gpu, tp=tp)
        fresh = LatencyModel(spec, gpu, tp=tp)
        for length in PREFILL_LENGTHS:
            single = model.prefill_time_single(length)
            assert single == model.prefill_time([length])
            assert single == model.prefill_time((length,))
            assert single == fresh.prefill_time_single(length)
        assert list(model.prefill_time_batch(PREFILL_LENGTHS)) == [
            fresh.prefill_time([n]) for n in PREFILL_LENGTHS
        ]

    def test_prefill_matches_the_appendix_form(self, spec, gpu, tp):
        # The constant-folded coefficients reassociate the products, so
        # the unfolded form agrees to rounding, not to the bit.
        model = LatencyModel(spec, gpu, tp=tp)
        for batch in PREFILL_BATCHES:
            assert model.prefill_time(batch) == pytest.approx(
                appendix_prefill(model, batch), rel=1e-12
            )
        for length in PREFILL_LENGTHS:
            assert model.prefill_time_single(length) == pytest.approx(
                appendix_prefill(model, [length]), rel=1e-12
            )

    def test_predictions_positive_and_finite(self, spec, gpu, tp):
        model = LatencyModel(spec, gpu, tp=tp)
        for batch in PREFILL_BATCHES:
            assert 0.0 < model.prefill_time(batch) < float("inf")
        for b, c in DECODE_POINTS:
            assert 0.0 < model.decode_step_time(b, c) < float("inf")


class TestMemoizationEdges:
    def test_empty_prefill_is_zero(self, spec):
        model = LatencyModel(spec, H800)
        assert model.prefill_time([]) == 0.0

    def test_nonpositive_decode_batch_is_zero(self, spec):
        model = LatencyModel(spec, H800)
        assert model.decode_step_time(0, 100) == 0.0
        assert model.decode_step_time(-3, 100) == 0.0

    def test_nothing_is_memoized(self, spec):
        model = LatencyModel(spec, H800)
        model.prefill_time([100, 200])
        model.prefill_time_single(100)
        model.decode_step_time(4, 4096)
        assert model.cache_info() == {}

    def test_instances_are_independent(self, spec):
        a = LatencyModel(spec, H800)
        b = LatencyModel(spec, A10)
        before = b.prefill_time([100])
        a.prefill_time([100])
        assert b.prefill_time([100]) == before
        # Different hardware gives a different prediction for the same batch.
        assert a.prefill_time([100]) != before

    def test_order_sensitivity_preserved(self, spec):
        """Eq. 5 is a sum over the batch: a permuted batch gives the
        identical prediction (the folds are exact integer sums)."""
        for gpu in GPUS:
            for tp in TPS:
                model = LatencyModel(spec, gpu, tp=tp)
                for batch in PREFILL_BATCHES:
                    expected = model.prefill_time(batch)
                    assert model.prefill_time(batch[::-1]) == expected
                    assert model.prefill_time(sorted(batch)) == expected

    def test_predictions_retain_no_memory(self, spec):
        model = LatencyModel(spec, H800, tp=2)
        model.prefill_time_single(1)  # warm the code path
        model.prefill_time([1])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for n in range(2, 10_002):
                model.prefill_time_single(n)
                model.prefill_time([n])
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1024
