"""Polling reclaim daemons: the oracle for move-list reclaim in
``repro.transfer.kv_transfer``.

``_reclaim_daemon`` below is the daemon as it stood before a completing
``CudaEvent`` told its move list, kept verbatim apart from this
paragraph, absolute imports, and its form: a generator process now
that the kernel has one process form, which waits on the same events
and counts its starts and wake-ups in the :class:`Tally` itself;
``_kick_daemon`` is the manager method that woke it, as a function.  Every manager runs one daemon, which ticks
every ``daemon_interval`` while the shared move list holds anything,
scans the list at every tick, and parks on a wake event when the list is
empty; the manager's adds kick it awake.  :func:`polling` installs them
in place of the production reclaim, so the differential test in
``test_reclaim_reference.py`` can check that the production list frees
the same extents at the same instants, and that the steps it saves are
exactly the daemons' start events, wake-ups and ticks that free nothing.
The daemon's own docstring is its original description.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.sim import Environment
from repro.transfer.kv_transfer import KvTransferManager, MoveList

__all__ = ["polling"]


def _reclaim_daemon(env: Environment, mgr: "KvTransferManager", tally: "Tally"):
    """Reclaim move-list blocks while any are in flight (Fig. 10, step ⑧).

    Reclamation happens on a fixed ``daemon_interval`` tick grid, but the
    daemon parks on a wake event whenever the move list is empty instead
    of polling forever — the idle-polling version dominated the whole
    simulation's event count.  When woken it re-aligns to the grid, so
    blocks are freed at the same instants the always-polling daemon would
    have freed them.

    Each pass either parks on a fresh wake event (move list empty) and,
    woken, re-aligns to the next grid tick strictly after the add (the
    add loses same-instant ties to an already-queued timeout, hence
    "strictly after"), or arms a grid timeout; the tick then reclaims.
    """
    tally.starts += 1
    while True:
        if not mgr.move_list.entries:
            mgr._daemon_wake = env.event()
            yield mgr._daemon_wake
            tally.wakeups += 1
            mgr._daemon_wake = None
            interval = mgr._daemon_interval
            remainder = env.now % interval
            yield env.timeout(interval - remainder if remainder > 0.0 else interval)
        else:
            yield env.timeout(mgr._daemon_interval)
        freed = mgr.move_list.reclaim(mgr.cpu_cache)
        if freed:
            mgr.stats.charge_control(1)


def _kick_daemon(self) -> None:
    """Wake the reclaim daemon after adding to the move list."""
    wake = self._daemon_wake
    if wake is not None and not wake.triggered:
        wake.succeed()


# -- installation -------------------------------------------------------------
class Tally:
    """Kernel events the polling daemons spent besides their ticks."""

    def __init__(self) -> None:
        self.starts = 0
        self.wakeups = 0


def _add(move_list: MoveList, blocks, event, manager=None) -> None:
    move_list.entries.append((blocks, event))
    if manager is not None:
        _kick_daemon(manager)


@contextmanager
def polling() -> Iterator[Tally]:
    """Give every manager attached to a move list inside a polling daemon.

    Yields a :class:`Tally` of the events the daemons spent.
    """
    tally = Tally()

    def attach(move_list: MoveList, manager: KvTransferManager) -> KvTransferManager:
        # The "grid" handed back to add() is the manager, whose daemon it kicks.
        manager._daemon_wake = None
        manager.env.process(_reclaim_daemon(manager.env, manager, tally))
        return manager

    saved = {"attach": MoveList.attach, "add": MoveList.add}
    MoveList.attach = attach
    MoveList.add = _add
    try:
        yield tally
    finally:
        for name, value in saved.items():
            setattr(MoveList, name, value)
