"""Latency predictions are pure: repeated calls agree bit for bit.

The Eq. 5-6 coefficients are constant-folded, and a true LRU
(:func:`functools.lru_cache`) sits in front of ``prefill_time``.  A
cache hit returns the float computed on the miss, so cached and
uncached predictions agree to full precision — no approx, exact ``==``
— across every GPU preset and TP degree.  ``decode_step_time`` has no
memo; it computes Eq. 6 on every call, and must be just as pure.
"""

import pytest

from repro.hardware import A10, H20, H800
from repro.models import LatencyModel, get_model

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


@pytest.mark.parametrize("gpu", GPUS, ids=GPU_IDS)
@pytest.mark.parametrize("tp", TPS)
class TestMemoizationExactness:
    def test_prefill_cached_equals_uncached(self, spec, gpu, tp):
        warm = LatencyModel(spec, gpu, tp=tp)
        first = [warm.prefill_time(batch) for batch in PREFILL_BATCHES]
        repeat = [warm.prefill_time(batch) for batch in PREFILL_BATCHES]
        # A fresh instance's first calls are all cache misses: the
        # uncached reference computation.
        fresh = LatencyModel(spec, gpu, tp=tp)
        uncached = [fresh.prefill_time(batch) for batch in PREFILL_BATCHES]
        assert first == repeat == uncached
        info = warm.cache_info()["prefill"]
        assert info.hits >= len(PREFILL_BATCHES)
        assert info.misses == len(PREFILL_BATCHES)

    def test_decode_cached_equals_uncached(self, spec, gpu, tp):
        # Eq. 6 has no memo, so every call is uncached: repeated calls
        # on one instance, in another order, and a fresh instance's
        # calls must all agree exactly.
        warm = LatencyModel(spec, gpu, tp=tp)
        first = [warm.decode_step_time(b, c) for b, c in DECODE_POINTS]
        repeat = [warm.decode_step_time(b, c) for b, c in reversed(DECODE_POINTS)]
        fresh = LatencyModel(spec, gpu, tp=tp)
        again = [fresh.decode_step_time(b, c) for b, c in DECODE_POINTS]
        assert first == repeat[::-1] == again
        assert list(warm.decode_time_batch(*zip(*DECODE_POINTS))) == first

    def test_prefill_single_matches_batch_of_one(self, spec, gpu, tp):
        model = LatencyModel(spec, gpu, tp=tp)
        for length in (1, 64, 1000, 8192):
            assert model.prefill_time_single(length) == model.prefill_time([length])

    def test_predictions_positive_and_finite(self, spec, gpu, tp):
        model = LatencyModel(spec, gpu, tp=tp)
        for batch in PREFILL_BATCHES:
            assert 0.0 < model.prefill_time(batch) < float("inf")
        for b, c in DECODE_POINTS:
            assert 0.0 < model.decode_step_time(b, c) < float("inf")


class TestMemoizationEdges:
    def test_empty_prefill_is_zero_and_not_cached(self, spec):
        model = LatencyModel(spec, H800)
        assert model.prefill_time([]) == 0.0
        assert model.cache_info()["prefill"].misses == 0

    def test_nonpositive_decode_batch_is_zero(self, spec):
        model = LatencyModel(spec, H800)
        assert model.decode_step_time(0, 100) == 0.0
        assert model.decode_step_time(-3, 100) == 0.0

    def test_only_prefill_is_memoized(self, spec):
        model = LatencyModel(spec, H800)
        model.decode_step_time(4, 4096)
        assert list(model.cache_info()) == ["prefill"]
        assert model.cache_info()["prefill"].misses == 0

    def test_caches_are_per_instance(self, spec):
        a = LatencyModel(spec, H800)
        b = LatencyModel(spec, A10)
        a.prefill_time([100])
        assert b.cache_info()["prefill"].misses == 0
        # Different hardware gives a different prediction for the same key.
        assert a.prefill_time([100]) != b.prefill_time([100])

    def test_order_sensitivity_preserved(self, spec):
        """The cache keys the exact batch signature: permuted batches
        are distinct keys but identical predictions (Eq. 5 is a sum)."""
        model = LatencyModel(spec, H800)
        forward = model.prefill_time([100, 200, 300])
        backward = model.prefill_time([300, 200, 100])
        assert forward == backward
        assert model.cache_info()["prefill"].misses == 2
