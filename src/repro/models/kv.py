"""KV-cache geometry (paper Table 1).

The KV cache for one token is a tensor of shape
``(n_layers, 2, n_kv_heads, head_dim)`` — key and value per layer.  Its
byte size varies 20x across the catalog (128 KB/token for GQA models like
InternLM2.5-7B up to 2560 KB/token for Qwen-72B), which is exactly why
Aegaeon's unified KV cache needs shape-aware slab allocation (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import ModelSpec

__all__ = ["KvShape", "kv_shape", "kv_bytes_per_token", "kv_block_bytes"]

# vLLM-style paged KV cache: a block holds this many tokens.
DEFAULT_BLOCK_TOKENS = 16


@dataclass(frozen=True, eq=False)
class KvShape:
    """Per-token KV tensor shape, the unit of slab-pool segregation.

    Shapes key the allocator's slab pools and are compared on every
    block free.  ``kv_shape`` interns instances, so equality is
    identity; the hash is precomputed from the fields, since set
    iteration order depends on it.
    """

    n_layers: int
    n_kv_heads: int
    head_dim: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        key = (self.n_layers, self.n_kv_heads, self.head_dim, self.dtype_bytes)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """Shape tuple as printed in Table 1: (layers, 2, kv_heads, head_dim)."""
        return (self.n_layers, 2, self.n_kv_heads, self.head_dim)

    @property
    def bytes_per_token(self) -> int:
        """Bytes of KV cache one token occupies across all layers."""
        return (
            self.n_layers * 2 * self.n_kv_heads * self.head_dim * self.dtype_bytes
        )

    def block_bytes(self, block_tokens: int = DEFAULT_BLOCK_TOKENS) -> int:
        """Bytes of one paged-attention block of this shape."""
        return self.bytes_per_token * block_tokens

    def __str__(self) -> str:
        return f"KV{self.dims}"


@lru_cache(maxsize=None)
def _interned_shape(
    n_layers: int, n_kv_heads: int, head_dim: int, dtype_bytes: int
) -> KvShape:
    return KvShape(
        n_layers=n_layers,
        n_kv_heads=n_kv_heads,
        head_dim=head_dim,
        dtype_bytes=dtype_bytes,
    )


def kv_shape(spec: ModelSpec, tp: int = 1) -> KvShape:
    """The per-GPU KV shape for ``spec`` under tensor parallelism ``tp``.

    Equal shapes return the *same* object, so shape comparisons on the
    allocator hot path resolve by identity.
    """
    shard = spec.shard(tp) if tp > 1 else spec
    return _interned_shape(
        shard.n_layers, shard.n_kv_heads, shard.head_dim, shard.dtype_bytes
    )


def kv_bytes_per_token(spec: ModelSpec, tp: int = 1) -> int:
    """Per-GPU KV bytes for one token of ``spec`` at TP degree ``tp``."""
    return kv_shape(spec, tp).bytes_per_token


def kv_block_bytes(
    spec: ModelSpec, tp: int = 1, block_tokens: int = DEFAULT_BLOCK_TOKENS
) -> int:
    """Per-GPU bytes of one KV block."""
    return kv_shape(spec, tp).block_bytes(block_tokens)
