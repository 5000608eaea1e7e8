"""GPU device models.

A :class:`GpuSpec` captures the handful of hardware parameters that the
paper's analytical latency model (Appendix A.2) and the auto-scaling cost
model (§5) actually depend on: peak FP16 compute, HBM bandwidth, VRAM
capacity, and host-link (PCIe) bandwidth.  Presets cover the devices used
in the paper's evaluation (H800, A10, H20) plus A100 for reference.

A :class:`Gpu` is a *simulated device instance*: a spec plus mutable VRAM
occupancy state, owned by a :class:`~repro.hardware.node.Node`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GpuSpec", "Gpu", "H800", "H20", "A100", "A10", "GPU_PRESETS"]

GiB = 1024**3


@dataclass(frozen=True)
class GpuSpec:
    """Static hardware parameters of one GPU model."""

    name: str
    vram_bytes: int
    fp16_tflops: float  # dense FP16/BF16 peak, TFLOP/s
    hbm_bandwidth: float  # bytes/s
    pcie_bandwidth: float  # bytes/s, per direction (host link)
    # Achievable fractions of peak, folded into the latency model's
    # profiled constants (C1..C5 in Appendix A.2).
    compute_efficiency: float = 0.45
    memory_efficiency: float = 0.65

    @property
    def effective_flops(self) -> float:
        """Sustained FLOP/s for large GEMMs (prefill)."""
        return self.fp16_tflops * 1e12 * self.compute_efficiency

    @property
    def effective_hbm_bandwidth(self) -> float:
        """Sustained bytes/s for streaming weight reads (decoding)."""
        return self.hbm_bandwidth * self.memory_efficiency

    def __str__(self) -> str:
        return f"{self.name} ({self.vram_bytes / GiB:.0f} GB)"


# Presets.  PCIe figures follow the paper's own arithmetic, which assumes
# PCIe 4.0 x16 = 32 GB/s for the H800 testbed.
H800 = GpuSpec(
    name="H800",
    vram_bytes=80 * GiB,
    fp16_tflops=989.0,
    hbm_bandwidth=3.35e12,
    pcie_bandwidth=32e9,
)

H20 = GpuSpec(
    name="H20",
    vram_bytes=96 * GiB,
    fp16_tflops=148.0,
    hbm_bandwidth=4.0e12,
    pcie_bandwidth=64e9,
)

A100 = GpuSpec(
    name="A100",
    vram_bytes=80 * GiB,
    fp16_tflops=312.0,
    hbm_bandwidth=2.0e12,
    pcie_bandwidth=32e9,
)

A10 = GpuSpec(
    name="A10",
    vram_bytes=24 * GiB,
    fp16_tflops=125.0,
    hbm_bandwidth=600e9,
    pcie_bandwidth=32e9,
)

GPU_PRESETS: dict[str, GpuSpec] = {
    spec.name: spec for spec in (H800, H20, A100, A10)
}


@dataclass
class Gpu:
    """One simulated GPU device (VRAM allocation lives in :mod:`repro.memory`)."""

    spec: GpuSpec
    index: int = 0
    node_index: int = 0
    labels: dict[str, str] = field(default_factory=dict)
    # Cleared when chaos takes the device offline; schedulers and the
    # invariant checker treat an unhealthy GPU's instance as dead.
    healthy: bool = True

    @property
    def key(self) -> str:
        """Stable identifier, unique within a cluster."""
        return f"node{self.node_index}.gpu{self.index}"

    def __str__(self) -> str:
        return f"{self.key}[{self.spec.name}]"
