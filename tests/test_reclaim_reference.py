"""Differential test: move-list reclaim against polling daemons.

The production :class:`~repro.transfer.MoveList` simulates only the
reclaim ticks that free something.  ``tests/reference_reclaim.py``
brings back the daemons that polled the list every ``daemon_interval``.
Each scenario runs once per implementation, logging every reclaim that
frees blocks as ``(instant, runs of each freed extent)`` per move list.
The logs, the dispositions and the clocks must be identical; the
production run must never reclaim nothing; and it must take exactly the
polling daemons' start events, wake-ups and empty ticks fewer steps.

Scenarios: a 4-manager server sharing one move list under a seeded
chaos sweep (fault seed 2 kills a decode instance), and each simbench
workload builder at scale 0.05.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

from repro.chaos import InstanceFailure
from repro.hardware import pcie_pair
from repro.memory import SlabAllocator
from repro.sim import Environment
from repro.transfer import CudaEvent, KvTransferManager, MoveList

from . import reference_reclaim, test_chaos_determinism
from .test_kernel_reference import _serve_outcome

SIMBENCH = Path(__file__).resolve().parent.parent / "simbench"
MiB = 1024**2


def _simbench_workloads():
    name = "simbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SIMBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return sys.modules[name]


@contextmanager
def _reclaim_log():
    """Log every reclaim, per move list in construction order."""
    log: dict[int, list] = defaultdict(list)
    empty = [0]
    lists: dict[int, int] = {}
    init, reclaim = MoveList.__init__, MoveList.reclaim

    def logged_init(self):
        init(self)
        lists[id(self)] = len(lists)

    def logged_reclaim(self, cpu_cache):
        entries = self.entries
        freed = reclaim(self, cpu_cache)
        runs = [tuple(blocks.runs) for blocks, _ in entries if not blocks.live]
        if runs:
            log[lists[id(self)]].append((entries[0][1].env.now, runs))
        else:
            empty[0] += 1
        return freed

    MoveList.__init__ = logged_init
    MoveList.reclaim = logged_reclaim
    try:
        yield log, empty
    finally:
        MoveList.__init__ = init
        MoveList.reclaim = reclaim


def _chaos(fault_seed):
    env, system, result = test_chaos_determinism.faulted_run(fault_seed)
    plan = system.fault_injector.plan
    kills = sum(isinstance(fault, InstanceFailure) for fault in plan.faults)
    return (_serve_outcome(env, system, result), kills), [env]


def _simbench(name):
    workloads = _simbench_workloads()

    def run():
        workload = workloads.WORKLOADS[name]
        dispositions = workloads.Dispositions()
        undo = workloads.install_fold_tap(dispositions) if workload.fleet else None
        try:
            replay = workload.build(1, 0.05, dispositions)
            replay.replay()
        finally:
            if undo is not None:
                undo()
        outcome = replay.outcome()
        counters = outcome.pop("counters")
        outcome.pop("fingerprint")  # hashes the step count
        seen = (
            dispositions._digest.hexdigest(),
            outcome,
            {k: v for k, v in counters.items() if not k.startswith("sim.")},
        )
        if workload.fleet:
            return seen, [replay.fleet.env]
        return seen, [system.env for _, system, _ in replay.points]

    return run


def _run(scenario, polling: bool):
    with _reclaim_log() as (log, empty):
        with reference_reclaim.polling() if polling else nullcontext() as tally:
            seen, envs = scenario()
    return seen, envs, dict(log), empty[0], tally


def _assert_reclaims_agree(scenario):
    seen, envs, log, empty, _ = _run(scenario, polling=False)
    ref_seen, ref_envs, ref_log, ref_empty, tally = _run(scenario, polling=True)
    assert seen == ref_seen
    assert log == ref_log
    assert sum(map(len, log.values())) > 0
    assert empty == 0
    assert [env.now for env in envs] == [env.now for env in ref_envs]
    steps = sum(env.steps_executed for env in envs)
    ref_steps = sum(env.steps_executed for env in ref_envs)
    assert ref_steps - steps == tally.starts + tally.wakeups + ref_empty
    assert [env.steps_inlined for env in envs] == [
        env.steps_inlined for env in ref_envs
    ]
    return seen


def _script(actions, late=None):
    """Managers sharing one move list run ``actions``.

    Each action is ``(manager, add_at, done_after)``: at ``add_at`` the
    manager puts four CPU blocks on the list under a fresh event, which
    completes ``done_after`` seconds later (``None``: just before the
    add).  ``late`` is one more manager and the instant it is built at.
    Daemons keep the default 5 ms grid.
    """

    def run():
        env = Environment()
        link = pcie_pair(env, bandwidth=32e9)
        gpu = SlabAllocator(64 * MiB, MiB)
        cpu = SlabAllocator(64 * MiB, MiB)
        move_list = MoveList()

        def build(index):
            return KvTransferManager(
                env, link, gpu, cpu, move_list=move_list, name=f"m{index}"
            )

        managers = [build(index) for index in range(1 + max(a[0] for a in actions))]

        def builder(at):
            yield env.timeout(at)
            managers.append(build(len(managers)))

        if late is not None:
            env.process(builder(late))

        def actor(index, add_at, done_after):
            yield env.timeout(add_at)
            manager = managers[index]
            event = CudaEvent(env)
            event.recorded = True
            if done_after is None:
                event._complete()
            move_list.add(cpu.alloc("s", 1024, 4), event, manager._reclaim)
            if done_after is not None:
                yield env.timeout(done_after)
                event._complete()

        for action in actions:
            env.process(actor(*action))
        # A fixed end: a polling daemon's last empty tick would be the
        # run's last event.
        env.run(until=1.0)
        seen = [manager.stats.control_overhead for manager in managers]
        return (seen, cpu.blocks_freed), [env]

    return run


class TestReclaimTies:
    """Hand-placed instants where a tick, a completion and a wake-up
    coincide; none of the workloads above lands an exact tie."""

    def test_completion_on_a_tick_is_reclaimed_there(self):
        _assert_reclaims_agree(_script([(0, 0.0, 0.005)]))
        _assert_reclaims_agree(_script([(0, 0.0, 0.01)]))

    def test_a_tick_armed_early_lands_exactly_on_the_grid(self):
        # Armed at 0.0005 for the tick at 0.005, where 0.0005 + (0.005 -
        # 0.0005) rounds to 0.005000000000000001.
        _assert_reclaims_agree(_script([(0, 0.0002, 0.0003)]))

    def test_daemons_ticking_together_go_in_activation_order(self):
        # Both grids sit on 0.005, 0.010, ...: the daemon woken first
        # reclaims (and is charged for) both entries.
        _assert_reclaims_agree(_script([(1, 0.0, 0.007), (0, 0.001, 0.006)]))

    def test_a_daemon_woken_later_can_tick_first(self):
        # Manager 0's grid is 0.006, 0.011; its entry completes at
        # 0.0065.  Manager 1 wakes at 0.007 onto 0.010 and frees it.
        _assert_reclaims_agree(_script([(0, 0.001, 0.0055), (1, 0.007, 0.01)]))

    def test_an_emptied_list_parks_every_daemon(self):
        _assert_reclaims_agree(
            _script([(0, 0.0, 0.001), (1, 0.002, 0.001), (0, 0.05, 0.02), (1, 0.3, 0.0)])
        )
        # Manager 1 empties the list at its tick 0.030000000000000002 and
        # parks; had it kept ticking, its drifted grid would reach the
        # entry manager 0 adds at 0.031 before manager 0's own grid does.
        _assert_reclaims_agree(_script([(1, 0.0034, 0.026), (0, 0.031, 0.0243)]))

    def test_an_entry_added_complete_frees_at_the_next_tick(self):
        _assert_reclaims_agree(_script([(0, 0.001, None), (1, 0.002, None)]))

    def test_a_daemon_started_over_pending_entries_ticks_from_its_start(self):
        # Manager 1 is built at 0.0286 with manager 0's entry pending: it
        # ticks at 0.0336, right after the entry completes and before
        # manager 0's 0.035.
        seen = _assert_reclaims_agree(_script([(0, 0.0034, 0.03)], late=0.0286))
        assert seen[0][0] == 0.0 and seen[0][1] > 0.0


class TestReclaimDifferential:
    @pytest.mark.parametrize("fault_seed", [1, 2, 3])
    def test_chaos_sweep_on_a_shared_move_list(self, fault_seed):
        _, kills = _assert_reclaims_agree(lambda: _chaos(fault_seed))
        assert kills > 0 or fault_seed != 2

    @pytest.mark.parametrize("name", ["fleet_market", "pool_sweep", "fleet_control"])
    def test_simbench_workload(self, name):
        _assert_reclaims_agree(_simbench(name))


class TestBareMoveList:
    def test_completion_without_a_daemon_arms_nothing(self):
        env = Environment()
        cache = SlabAllocator(64 * MiB, MiB)
        move_list = MoveList()
        event = CudaEvent(env)
        event.recorded = True
        move_list.add(cache.alloc("s", 1024, 4), event)
        event._complete()
        env.run()
        assert env.steps_executed == 0
        assert move_list.reclaim(cache) == 4

    def test_an_event_guards_one_move_list(self):
        env = Environment()
        cache = SlabAllocator(64 * MiB, MiB)
        event = CudaEvent(env)
        event.recorded = True
        MoveList().add(cache.alloc("s", 1024, 1), event)
        with pytest.raises(ValueError):
            MoveList().add(cache.alloc("s", 1024, 1), event)
