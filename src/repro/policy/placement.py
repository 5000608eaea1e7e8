"""Placement policies: model → GPU assignment for static multiplexing.

``MuxServe.prepare`` is the one caller: it runs the bundle's policy
over the catalog once, before the trace.

* :class:`MemoryConstrainedPlacement` — MuxServe's optimizer rule
  (§2.3, §7.2): first-fit in popularity order, refusing to colocate
  models whose weights plus a minimum KV reservation exceed the usable
  share of VRAM.
* :class:`CostAwarePlacement` — **new**: heterogeneity-aware variant
  that scores every GPU type by *market cost per generated token*
  (hourly price over sustained decode bandwidth) and fills the
  cheapest-per-token slots first, so popular models land where their
  tokens are cheapest.  On a homogeneous cluster it degrades exactly to
  first-fit; on a mixed pool it shifts traffic off overpriced devices.
  Each decision is emitted as a ``policy.placement`` trace event.
"""

from __future__ import annotations

from typing import Any, Sequence

from .base import policy_event

__all__ = [
    "MIN_KV_BYTES",
    "MARKET_HOURLY_USD",
    "USABLE_VRAM_FRACTION",
    "MemoryConstrainedPlacement",
    "CostAwarePlacement",
]

GiB = 1024**3

# Per-model reservation the placement optimizer demands beyond weights:
# a minimum KV pool plus engine runtime overhead (activations, CUDA
# context, allocator headroom).  With the paper's 25.1 GB average
# weights this caps placement at two models per 80 GB GPU — the "at
# most 32 models on 16 GPUs" observation of §7.2.
MIN_KV_BYTES = 16 * GiB

# The share of a GPU's VRAM a static placement may plan on; the rest is
# engine runtime headroom.  MuxServe's per-GPU KV budget uses it too.
USABLE_VRAM_FRACTION = 0.9

# Representative on-demand market rates (USD/hour) for the paper's
# device families — the numerator of the cost-per-token score and the
# rate billing charges (``ServingSystemBase.hourly_usd``).  A device
# missing from the table raises ``KeyError`` in both.
MARKET_HOURLY_USD: dict[str, float] = {
    "H800": 12.00,
    "H20": 6.50,
    "A100": 4.10,
    "A10": 0.75,
}


class MemoryConstrainedPlacement:
    """Greedy first-fit placement under a hard VRAM cap."""

    def slot_order(self, slots: Sequence) -> list[int]:
        """The order slots are filled in (first-fit: as given)."""
        return list(range(len(slots)))

    def plan(
        self, models: Sequence, slots: Sequence, tracer=None
    ) -> tuple[list[list], list]:
        """Place ``models`` (most-popular first) onto GPU-spec ``slots``.

        Returns ``(per-slot model lists, unplaced models)``; the outer
        list aligns with the input slot order regardless of the policy's
        fill order.
        """
        order = self.slot_order(slots)
        placements: list[list] = [[] for _ in slots]
        used = [0] * len(slots)
        unplaced: list = []
        for spec in models:
            need = spec.weight_bytes + MIN_KV_BYTES
            for index in order:
                budget = int(slots[index].vram_bytes * USABLE_VRAM_FRACTION)
                if used[index] + need <= budget:
                    placements[index].append(spec)
                    used[index] += need
                    self._note(tracer, spec, index, slots[index])
                    break
            else:
                unplaced.append(spec)
                policy_event(
                    tracer, "placement", decision="unplaced", model=spec.name
                )
        return placements, unplaced

    def _note(self, tracer, spec, slot: int, gpu_spec) -> None:
        policy_event(
            tracer, "placement", decision="place",
            model=spec.name, slot=slot, gpu=gpu_spec.name,
        )


class CostAwarePlacement(MemoryConstrainedPlacement):
    """Fill the cheapest cost-per-token GPUs first on mixed pools."""

    def score(self, gpu_spec: Any) -> float:
        """Market cost per token-throughput unit: USD/h per sustained GB/s.

        Decoding is HBM-bandwidth-bound (Appendix A.2), so a device's
        token throughput scales with its effective HBM bandwidth; the
        hourly price over that bandwidth ranks devices by what one
        generated token actually costs on the market.
        """
        bandwidth_gbs = gpu_spec.effective_hbm_bandwidth / 1e9
        return MARKET_HOURLY_USD[gpu_spec.name] / max(bandwidth_gbs, 1e-9)

    def slot_order(self, slots: Sequence) -> list[int]:
        """Cheapest cost-per-token first; ties keep the input order."""
        return sorted(range(len(slots)), key=lambda i: (self.score(slots[i]), i))

    def _note(self, tracer, spec, slot: int, gpu_spec) -> None:
        policy_event(
            tracer, "placement", decision="place",
            model=spec.name, slot=slot, gpu=gpu_spec.name,
            usd_per_gbs=round(self.score(gpu_spec), 6),
        )
