"""Physical node model: GPUs + host DRAM + host links.

Mirrors the paper's testbed shape — a node carries several GPUs, a large
DDR5 DRAM pool (host model cache + unified CPU KV cache live there), and
one PCIe link per GPU.
"""

from __future__ import annotations

from ..sim import Environment
from .gpu import Gpu, GpuSpec
from .interconnect import DuplexLink, pcie_pair

__all__ = ["Node"]

GiB = 1024**3


class Node:
    """One physical server with GPUs, DRAM, and per-GPU PCIe links."""

    def __init__(
        self,
        env: Environment,
        gpu_spec: GpuSpec,
        gpu_count: int,
        dram_bytes: int = 2048 * GiB,
        index: int = 0,
    ):
        if gpu_count <= 0:
            raise ValueError("a node needs at least one GPU")
        self.env = env
        self.index = index
        self.dram_bytes = dram_bytes
        self.dram_used = 0
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

    @property
    def dram_free(self) -> int:
        """Unclaimed host memory in bytes."""
        return self.dram_bytes - self.dram_used

    def claim_dram(self, nbytes: int) -> None:
        """Claim host memory for a cache region (model cache, KV pool)."""
        if nbytes > self.dram_free:
            raise MemoryError(
                f"node{self.index}: requested {nbytes} bytes of DRAM, "
                f"only {self.dram_free} free"
            )
        self.dram_used += nbytes

    def release_dram(self, nbytes: int) -> None:
        """Release previously claimed host memory."""
        if nbytes > self.dram_used:
            raise ValueError("release exceeds claimed DRAM")
        self.dram_used -= nbytes

    def __repr__(self) -> str:
        spec = self.gpus[0].spec
        return (
            f"<Node {self.index}: {len(self.gpus)}x{spec.name}, "
            f"{self.dram_bytes / GiB:.0f} GB DRAM>"
        )
