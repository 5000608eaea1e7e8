"""Analytical latency model (paper Appendix A.2).

The paper predicts token-generation latency with profiled analytical
models (Eqs. 5-6, R-squared > 0.9 on their hardware) and model-switch
latency with Eq. 4.  We implement the same functional forms; the profiled
constants C1..C5 are derived from first principles against the simulated
GPU's sustained compute/bandwidth figures, so the model transfers across
the GPU presets (H800, A10, H20) without per-device profiling.

Functional forms (symbols per Table 1 of the appendix):

* prefill:  ``T = C1 * (4*t*h^2 + 2*t*h*m) + C2 * 3*h*t2 / b + C3``
* decoding: ``T = C4 * (4*h^2 + 2*h*m) + C5 * 3*h*t``
* switch:   ``T = model_bytes / (pcie_bandwidth * beta)``

where ``t`` is the token count in the batch, ``t2`` the squared sum of
input lengths, ``b`` the FlashAttention block size, and for decoding ``t``
is the total context (KV) tokens the step attends over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hardware.gpu import GpuSpec
from .catalog import ModelSpec
from .kv import kv_bytes_per_token

__all__ = [
    "LatencyModel",
    "switch_time",
    "PCIE_BETA",
    "NAIVE_LOAD_BANDWIDTH",
]

# Eq. 4's profiled PCIe-efficiency factor: effective load bandwidth is
# `pcie_bandwidth * beta`.  The paper profiles beta = 0.625 (32 GB/s PCIe
# 4.0 -> 20 GB/s sustained for the optimized pipelined loader).
PCIE_BETA = 0.625

# The *unoptimized* vLLM weight-loading path achieves only 2.83 GB/s in
# the paper's microbenchmark (Figure 7, right): loading LLaMA-13B at TP=2
# takes ~4.6 s.
NAIVE_LOAD_BANDWIDTH = 2.83e9

# FlashAttention kernel block size (Table 1 of the appendix).
FLASH_ATTENTION_BLOCK = 128


def switch_time(
    model: ModelSpec,
    gpu: GpuSpec,
    tp: int = 1,
    beta: float = PCIE_BETA,
) -> float:
    """Eq. 4: time to load a model's weights onto its TP group.

    Each GPU in the group loads its shard over its own PCIe link in
    parallel, so the wall time is the per-shard time.
    """
    shard_bytes = model.weight_bytes / tp
    return shard_bytes / (gpu.pcie_bandwidth * beta)


@dataclass
class LatencyModel:
    """Token-generation latency for one (model, GPU, TP) combination.

    Each equation is written once: Eq. 5 in ``_prefill_uncached``,
    whose one-prompt case ``prefill_time_single`` writes out with the
    same operations, and Eq. 6 in ``decode_step_time``.  Every
    prediction, single or many, goes through them.  Nothing is
    memoized: a prediction is a few flops, and a model keeps no state
    that grows with the calls it answers.
    """

    model: ModelSpec
    gpu: GpuSpec
    tp: int = 1
    # Fixed per-step overheads: kernel launch, sampling, detokenization.
    prefill_overhead: float = 0.008
    decode_overhead: float = 0.003

    def __post_init__(self) -> None:
        shard = self.model.shard(self.tp) if self.tp > 1 else self.model
        self._shard = shard
        h = self.model.hidden_size
        m = self.model.ffn_intermediate
        layers = self.model.n_layers
        flops = self.gpu.effective_flops * self.tp
        hbm = self.gpu.effective_hbm_bandwidth * self.tp

        # C1: GEMM time per (4*t*h^2 + 2*t*h*m) MAC count; 2 FLOPs per MAC,
        # n_layers layers.
        self._c1 = 2.0 * layers / flops
        # C2: attention-score time.  The appendix expresses it as
        # 3*h*t2/b; folding the FlashAttention block size back out, the
        # underlying FLOP count is ~8*h*t2 per layer (QK^T plus PV).
        self._c2 = (8.0 * layers * FLASH_ATTENTION_BLOCK) / (3.0 * flops)
        self._c3 = self.prefill_overhead
        # C4: decode weight-streaming time per (4h^2 + 2hm); the whole
        # shard is read from HBM once per step.
        weight_read = shard.weight_bytes / hbm
        self._c4 = weight_read / (4.0 * h * h + 2.0 * h * m)
        # C5: KV-cache read per context token, expressed against 3*h*t.
        kv_read_per_token = kv_bytes_per_token(self.model, self.tp) / (
            self.gpu.effective_hbm_bandwidth
        )
        self._c5 = kv_read_per_token / (3.0 * h)
        # Compute floor for very large decode batches (decode turns
        # compute-bound): 2 FLOPs per parameter per generated token.
        self._decode_flops_per_token = 2.0 * self.model.params / flops
        # Constant-folded coefficients: every per-step term that does not
        # depend on the batch is collapsed to one multiplier, so a
        # prediction is a handful of flops instead of re-deriving the
        # Eq. 5-6 expressions.
        self._prefill_per_token = self._c1 * (4.0 * h * h + 2.0 * h * m)
        self._prefill_per_sq_token = self._c2 * (3.0 * h) / FLASH_ATTENTION_BLOCK
        self._decode_weights_time = self._c4 * (4.0 * h * h + 2.0 * h * m)
        self._decode_per_context_token = self._c5 * 3.0 * h

    # -- predictions --------------------------------------------------------
    def _prefill_uncached(self, lengths: Sequence[int]) -> float:
        t = 0
        t2 = 0
        for length in lengths:
            t += length
            t2 += length * length
        return self._prefill_per_token * t + self._prefill_per_sq_token * t2 + self._c3

    def prefill_time(self, input_lengths: Sequence[int]) -> float:
        """Eq. 5: wall time of one prefill batch."""
        if not input_lengths:
            return 0.0
        return self._prefill_uncached(input_lengths)

    def prefill_time_single(self, input_length: int) -> float:
        """Eq. 5 for a batch of one prompt (the Algorithm 1 common case).

        Identical to ``prefill_time([input_length])`` without building a
        throwaway batch list — schedulers estimate queue loads with this
        in a tight loop.  ``_prefill_uncached``'s expression with
        ``t = n`` and ``t2 = n * n``: both exact, so the bits agree.
        """
        n = input_length
        return self._prefill_per_token * n + self._prefill_per_sq_token * (n * n) + self._c3

    def decode_step_time(self, batch_size: int, context_tokens: int) -> float:
        """Eq. 6: wall time of one decoding step for the whole batch.

        ``context_tokens`` is the total KV length attended over (the sum
        of current sequence lengths across the batch).
        """
        if batch_size <= 0:
            return 0.0
        memory = self._decode_weights_time + self._decode_per_context_token * context_tokens
        compute = self._decode_flops_per_token * batch_size
        return (memory if memory >= compute else compute) + self.decode_overhead

    # -- many predictions at once -------------------------------------------
    # Loops over the scalar methods; no simulation path calls them, they
    # stay as simbench span targets.
    def prefill_time_batch(self, input_lengths: Sequence[int]) -> np.ndarray:
        """``prefill_time_single`` for each prompt (each its own batch)."""
        return np.array(
            [self.prefill_time_single(n) for n in input_lengths], dtype=float
        )

    def decode_time_batch(
        self,
        batch_sizes: Sequence[int],
        context_tokens: Sequence[int],
    ) -> np.ndarray:
        """``decode_step_time`` for each ``(batch size, context)`` pair."""
        pairs = zip(batch_sizes, context_tokens)
        return np.array([self.decode_step_time(b, c) for b, c in pairs], dtype=float)

    def estimate_service_time_batch(
        self,
        input_lengths: Sequence[int],
        output_lengths: Sequence[int],
        decode_batch: int = 4,
    ) -> np.ndarray:
        """``estimate_service_time`` for each request."""
        return np.array(
            [
                self.estimate_service_time(n, out, decode_batch)
                for n, out in zip(input_lengths, output_lengths)
            ],
            dtype=float,
        )

    def cache_info(self) -> dict[str, object]:
        """Memo statistics: always ``{}``, nothing is memoized.

        Kept because simbench's ``models.memo_hit_share`` reads it.
        """
        return {}

    def switch_time(self, beta: float = PCIE_BETA) -> float:
        """Eq. 4 for this binding's model/GPU/TP."""
        return switch_time(self.model, self.gpu, self.tp, beta)

    def estimate_service_time(
        self, input_length: int, output_length: int, decode_batch: int = 4
    ) -> float:
        """Rough end-to-end service time for one request.

        Used by schedulers needing load estimates (Algorithm 1's queue
        load) and by the active-model analysis (Theorem 3.1's ``T``).
        """
        avg_context = input_length + output_length / 2.0
        per_step = self.decode_step_time(
            decode_batch, int(avg_context * decode_batch)
        )
        return self.prefill_time([input_length]) + output_length * per_step
