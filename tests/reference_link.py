"""Resource-backed reference link: the oracle for ``Link``'s channel claim.

This is ``repro.hardware.interconnect.Link`` as it stood before the link
owned its FIFO claim, kept verbatim apart from this paragraph and
absolute imports: the channel is a capacity-1 :class:`Resource` from
``reference_resources``, with the uncontended token fast path.  The
differential test in ``test_link_claim.py`` drives it and the
production ``Link`` through the same random transfers, throttles and
interrupts and requires the same observable log.

Original description — interconnect models: PCIe host links and NVLink
peer links.

Each :class:`Link` is a unidirectional DMA channel.  Transfers on one
channel serialize (matching how a staged ``cudaMemcpyAsync`` pipeline
behaves on a single copy engine); the two directions of a PCIe link are
independent channels, so swap-in and swap-out genuinely overlap — the
property Aegaeon's fine-grained KV synchronization (§5.3) exploits.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Environment

from .reference_resources import Resource

__all__ = ["Link"]


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
        self._channel = Resource(env, capacity=1)
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
        self.bandwidth /= factor

    def restore(self, factor: float) -> None:
        """Undo one :meth:`throttle` of the same ``factor``."""
        if factor <= 1.0:
            raise ValueError("restore factor must exceed 1.0")
        self.bandwidth *= factor

    def transfer(self, nbytes: int) -> Generator:
        """Process: move ``nbytes`` across the link (queues if busy)."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        channel = self._channel
        users = channel.users
        if not users and not channel.queue:
            # Uncontended fast path: the grant is immediate, so hold the
            # channel with a plain token instead of building a Request
            # event nothing will ever wait on.  Contending transfers see
            # the slot taken and queue through the normal path.
            token = object()
            users.append(token)
            try:
                duration = self.transfer_time(nbytes)
                yield self.env.timeout(duration)
                self.bytes_moved += nbytes
                self.busy_time += duration
            finally:
                users.remove(token)
                channel._grant_next()
            return
        with channel.request() as claim:
            yield claim
            duration = self.transfer_time(nbytes)
            yield self.env.timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration

    @property
    def queue_depth(self) -> int:
        """Transfers currently waiting for the channel."""
        return len(self._channel.queue)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of wall time the channel was busy."""
        elapsed = self.env.now if elapsed is None else elapsed
        return 0.0 if elapsed <= 0 else min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth / 1e9:.1f} GB/s>"
