"""Simulated hardware substrate: GPUs, interconnects, nodes, clusters."""

from .cluster import Cluster
from .gpu import A10, A100, GPU_PRESETS, H20, H800, Gpu, GpuSpec
from .interconnect import DuplexLink, Link, pcie_pair
from .node import Node

__all__ = [
    "A10",
    "A100",
    "Cluster",
    "DuplexLink",
    "GPU_PRESETS",
    "Gpu",
    "GpuSpec",
    "H20",
    "H800",
    "Link",
    "Node",
    "pcie_pair",
]
