"""``Link``'s FIFO channel claim against the Resource-backed oracle.

``Link.acquire`` / ``Link.release`` replaced a capacity-1 ``Resource``
with an uncontended token fast path.  ``tests/reference_link.py`` keeps
that link; hypothesis drives both through the same random transfers,
throttle/restore pairs, and interrupts of queued or in-flight transfers
on one shared link, and requires the same log of completions and
interrupts with times, the same ``bytes_moved`` / ``busy_time`` /
``queue_depth`` samples, and the same kernel step counts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Link
from repro.sim import Environment, Interrupt

from . import reference_link

# Bandwidth 4 B/s, sizes in whole bytes and throttle factors of 2 or 4
# put every duration on a quarter-second grid, so completions, grants,
# throttles and interrupts collide at shared instants.
BANDWIDTH = 4.0
TICK = 0.25
HORIZON = 16.0

# Starts and interrupts crowd into the first few seconds so that most
# interrupts find their transfer queued or in flight.
_times = st.integers(min_value=0, max_value=16).map(lambda n: n * TICK)


@st.composite
def link_programs(draw) -> dict:
    n = draw(st.integers(min_value=1, max_value=8))
    return {
        "transfers": draw(
            st.lists(
                st.tuples(_times, st.integers(min_value=0, max_value=12)),
                min_size=n,
                max_size=n,
            )
        ),
        "throttles": draw(
            st.lists(
                st.tuples(_times, _times, st.sampled_from([2.0, 4.0])),
                max_size=3,
            )
        ),
        "interrupts": draw(
            st.lists(
                st.tuples(_times, st.integers(min_value=0, max_value=n - 1)),
                max_size=4,
            )
        ),
    }


def _run_program(link_cls, program):
    env = Environment()
    link = link_cls(env, BANDWIDTH, latency=0.0)
    log: list = []
    procs: dict = {}

    def mover(i, start, nbytes):
        yield env.timeout(start)
        proc = procs[i] = env.process(link.transfer(nbytes))
        try:
            yield proc
            log.append((env.now, "done", i))
        except Interrupt:
            log.append((env.now, "interrupted", i))

    def throttler(at, duration, factor):
        yield env.timeout(at)
        link.throttle(factor)
        yield env.timeout(duration)
        link.restore(factor)

    def interrupter(at, i):
        yield env.timeout(at)
        proc = procs.get(i)
        if proc is not None and proc.is_alive and proc.target is not None:
            proc.interrupt()
            log.append((env.now, "interrupt", i))

    def sampler():
        while env.now < HORIZON:
            log.append((env.now, link.queue_depth, link.bytes_moved, link.busy_time))
            yield env.timeout(TICK)

    for i, (start, nbytes) in enumerate(program["transfers"]):
        env.process(mover(i, start, nbytes))
    for args in program["throttles"]:
        env.process(throttler(*args))
    for args in program["interrupts"]:
        env.process(interrupter(*args))
    env.process(sampler())
    env.run()
    log.append((env.now, link.queue_depth, link.bytes_moved, link.busy_time))
    return log, env.steps_executed, env.events_scheduled


class TestLinkClaimDifferential:
    @settings(max_examples=200, deadline=None)
    @given(program=link_programs())
    def test_claim_matches_resource_backed_reference(self, program):
        assert _run_program(Link, program) == _run_program(
            reference_link.Link, program
        )


class TestLinkClaim:
    def test_interrupted_queued_transfer_withdraws_grant(self):
        # The Link counterpart of the Resource test of the same name: the
        # withdrawn claim never takes the channel, and the next waiter
        # gets it exactly when the holder releases.
        env = Environment()
        link = Link(env, bandwidth=1.0, latency=0.0)
        env.process(link.transfer(4))
        queued = env.process(link.transfer(2))
        last = env.process(link.transfer(1))
        env.run(until=1.0)
        assert link.queue_depth == 2
        queued.interrupt()
        caught = []

        def observe():
            try:
                yield queued
            except Interrupt:
                caught.append(env.now)

        env.process(observe())
        env.run(until=1.0)
        assert caught == [1.0]
        assert link.queue_depth == 1
        env.run(until=last)
        assert env.now == 5.0
        assert link.bytes_moved == 5
        assert link.busy_time == 5.0
        assert link.queue_depth == 0
        # The channel is free again: a new claim is granted at once.
        assert link.acquire() is None
