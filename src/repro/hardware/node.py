"""Physical node model: GPUs + host links.

Mirrors the paper's testbed shape — a node carries several GPUs and one
PCIe link per GPU.  The host DRAM regions (model cache, unified CPU KV
cache) are sized by each system's config, not by the node.
"""

from __future__ import annotations

from ..sim import Environment
from .gpu import Gpu, GpuSpec
from .interconnect import DuplexLink, pcie_pair

__all__ = ["Node"]


class Node:
    """One physical server with GPUs and per-GPU PCIe links."""

    def __init__(
        self,
        env: Environment,
        gpu_spec: GpuSpec,
        gpu_count: int,
        index: int = 0,
    ):
        if gpu_count <= 0:
            raise ValueError("a node needs at least one GPU")
        self.env = env
        self.index = index
        self.gpus: list[Gpu] = [
            Gpu(spec=gpu_spec, index=i, node_index=index) for i in range(gpu_count)
        ]
        self.links: dict[int, DuplexLink] = {
            gpu.index: pcie_pair(env, gpu_spec.pcie_bandwidth, name=f"{gpu.key}.pcie")
            for gpu in self.gpus
        }

    def link(self, gpu: Gpu) -> DuplexLink:
        """The PCIe link attached to ``gpu``."""
        return self.links[gpu.index]

    def __repr__(self) -> str:
        spec = self.gpus[0].spec
        return f"<Node {self.index}: {len(self.gpus)}x{spec.name}>"
