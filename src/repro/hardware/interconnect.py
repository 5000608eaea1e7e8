"""Interconnect models: PCIe host links and NVLink peer links.

Each :class:`Link` is a unidirectional DMA channel.  Transfers on one
channel serialize (matching how a staged ``cudaMemcpyAsync`` pipeline
behaves on a single copy engine); the two directions of a PCIe link are
independent channels, so swap-in and swap-out genuinely overlap — the
property Aegaeon's fine-grained KV synchronization (§5.3) exploits.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from ..sim import Environment, Event

__all__ = ["Link", "DuplexLink", "pcie_pair"]


class Link:
    """A unidirectional transfer channel with fixed bandwidth.

    Transfers are FIFO: a transfer holds the channel for
    ``nbytes / bandwidth`` (plus fixed per-transfer latency).  Chunked
    pipelines issue many small transfers; their serialization on the
    channel reproduces copy-engine behaviour.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        name: str = "link",
        latency: float = 5e-6,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.name = name
        self.latency = latency
        self._busy = False
        self._grants: deque[Event] = deque()
        # The weight-load run retiring its chunks on this channel with one
        # timeout (``transfer.loader.LoadRun``), or None.  Anything that
        # could observe a chunk boundary splits it at ``now`` first.
        self._run = None
        self.bytes_moved = 0
        self.busy_time = 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Duration of a single transfer, excluding queueing."""
        return self.latency + nbytes / self.bandwidth

    def throttle(self, factor: float) -> None:
        """Divide bandwidth by ``factor`` (a congested/downtrained link).

        Only transfers that *start* while throttled are slowed —
        in-flight transfers sampled the old bandwidth, mirroring how a
        DMA burst already issued is unaffected by later link state.
        Overlapping throttles compose multiplicatively; pair each call
        with one :meth:`restore` of the same factor.
        """
        if factor <= 1.0:
            raise ValueError("throttle factor must exceed 1.0")
        if self._run is not None:
            self._run.split()
        self.bandwidth /= factor

    def restore(self, factor: float) -> None:
        """Undo one :meth:`throttle` of the same ``factor``."""
        if factor <= 1.0:
            raise ValueError("restore factor must exceed 1.0")
        if self._run is not None:
            self._run.split()
        self.bandwidth *= factor

    def acquire(self) -> Optional[Event]:
        """Claim the channel: ``None`` if it was free, else a grant event.

        Grants are succeeded in FIFO order by the holder's
        :meth:`release`; whoever holds the channel must release it.  A
        load run on the channel is split first, so the claim sees the
        chunk op in flight at ``now``.
        """
        if self._run is not None:
            self._run.split()
        if not self._busy:
            self._busy = True
            return None
        grant = self.env.event()
        self._grants.append(grant)
        return grant

    def settle(self) -> None:
        """Land what a load run on the channel has finished by ``now``.

        The run goes on untouched; only its landed chunks' counters and
        spans are brought up to date (``LoadRun.settle``).
        """
        if self._run is not None:
            self._run.settle()

    def release(self) -> None:
        """Hand the channel to the oldest waiting claim, or free it."""
        if self._grants:
            self._grants.popleft().succeed()
        else:
            self._busy = False

    def transfer(self, nbytes: int) -> Generator:
        """Process: move ``nbytes`` across the link (queues if busy).

        The duration is sampled once the channel is held (throttle
        semantics).  An interrupt while queued withdraws the claim.
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        grant = self.acquire()
        try:
            if grant is not None:
                yield grant
            duration = self.transfer_time(nbytes)
            yield self.env.timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
        finally:
            if grant is not None and not grant.triggered:
                self._grants.remove(grant)
            else:
                self.release()

    @property
    def queue_depth(self) -> int:
        """Transfers currently waiting for the channel."""
        return len(self._grants)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of wall time the channel was busy."""
        elapsed = self.env.now if elapsed is None else elapsed
        return 0.0 if elapsed <= 0 else min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth / 1e9:.1f} GB/s>"


class DuplexLink:
    """A pair of independent channels: host-to-device and device-to-host."""

    def __init__(self, env: Environment, bandwidth: float, name: str = "pcie"):
        self.h2d = Link(env, bandwidth, name=f"{name}.h2d")
        self.d2h = Link(env, bandwidth, name=f"{name}.d2h")

    @property
    def bandwidth(self) -> float:
        """Per-direction bandwidth in bytes/s."""
        return self.h2d.bandwidth


def pcie_pair(env: Environment, bandwidth: float, name: str = "pcie") -> DuplexLink:
    """Build the host link for one GPU (both directions)."""
    return DuplexLink(env, bandwidth, name=name)
