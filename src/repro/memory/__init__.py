"""Explicit memory management (§5.2): bump buffer, slab cache, model cache."""

from .bump import BumpAllocation, BumpAllocator
from .model_cache import CacheEntry, HostModelCache
from .slab import KvExtent, KvTooLargeError, ShapeStats, Slab, SlabAllocator

__all__ = [
    "BumpAllocation",
    "BumpAllocator",
    "CacheEntry",
    "HostModelCache",
    "KvExtent",
    "KvTooLargeError",
    "ShapeStats",
    "Slab",
    "SlabAllocator",
]
