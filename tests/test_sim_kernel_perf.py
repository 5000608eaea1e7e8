"""Kernel object lifetime, lazy-cancellation, and failure-path semantics.

The kernel allocates a fresh :class:`Event`/:class:`Timeout`/
:class:`Process` on every factory call and drops cancelled timeouts
lazily at heap pop.  These tests pin down the contract: an object
something still holds keeps its value and state after dispatch, a new
object comes back clean, an unobserved failure survives to
``env.run()`` with its exception intact, and none of it may perturb
simulation results.  (The class and test names date from when the
kernel recycled objects through freelists.)
"""

import pytest

from repro.sim import Environment, Event, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestUnobservedFailure:
    def test_unobserved_failure_surfaces_at_run(self, env):
        """An event failed with no observer must raise from env.run(),
        not be silently recycled into the freelist."""

        def proc(env):
            event = env.event()
            event.fail(RuntimeError("boom"))
            # Nobody yields on `event`; drop the reference entirely so
            # the run loop is the sole holder when it dispatches it.
            del event
            yield env.timeout(1.0)

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_observed_failure_is_defused_and_raises_in_process(self, env):
        caught = []

        def proc(env):
            event = env.event()
            event.fail(ValueError("expected"))
            try:
                yield event
            except ValueError as exc:
                caught.append(exc)
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert len(caught) == 1
        assert str(caught[0]) == "expected"

    def test_recycled_failed_event_does_not_pin_exception(self, env):
        """A defused failure's event may be recycled, but a fresh event
        from the pool must come back clean (no stale exception/value)."""

        def proc(env):
            event = env.event()
            event.fail(ValueError("transient"))
            try:
                yield event
            except ValueError:
                pass
            del event
            yield env.timeout(0.1)  # give the loop a chance to recycle
            fresh = env.event()
            assert fresh.callbacks == []
            assert not fresh.triggered
            assert not fresh.processed
            fresh.succeed("clean")
            value = yield fresh
            assert value == "clean"

        env.process(proc(env))
        env.run()


class TestFreelistSafety:
    def test_externally_held_events_keep_their_values(self, env):
        """Events a process keeps a handle on are never reused out from
        under it: their values survive long after processing."""
        held = []

        def proc(env):
            for i in range(50):
                event = env.event()
                event.succeed(i)
                held.append(event)
                yield env.timeout(0.1)

        env.process(proc(env))
        env.run()
        assert [event.value for event in held] == list(range(50))

    def test_held_failed_event_stays_failed_for_a_late_waiter(self, env):
        """A failed event something still holds keeps its failure after
        dispatch: a process that yields it later must get the exception
        thrown in, not a success carrying the exception as its value."""
        event = env.event()
        caught = []

        def observe(env, delay):
            if delay:
                yield env.timeout(delay)
            try:
                yield event
            except ValueError as exc:
                caught.append((env.now, str(exc)))

        env.process(observe(env, 0.0))
        env.process(observe(env, 1.0))
        event.fail(ValueError("held"))
        env.run()
        assert caught == [(0.0, "held"), (1.0, "held")]
        assert event.processed
        assert event._ok is False
        assert isinstance(event.value, ValueError)

    def test_ping_pong_deterministic_with_recycling(self):
        """Heavy event churn must not change event ordering."""

        def run():
            env = Environment()
            log = []

            def ping(env):
                for i in range(200):
                    yield env.timeout(0.5)
                    log.append(("ping", i, env.now))

            def pong(env):
                for i in range(200):
                    yield env.timeout(0.7)
                    log.append(("pong", i, env.now))

            env.process(ping(env))
            env.process(pong(env))
            env.run()
            return log

        assert run() == run()


class TestLazyCancellation:
    def test_cancelled_timeout_never_fires(self, env):
        fired = []

        def proc(env):
            doomed = env.timeout(5.0, value="doomed")
            doomed.callbacks.append(lambda ev: fired.append(ev))
            assert doomed.cancel()
            yield env.timeout(10.0)

        env.process(proc(env))
        env.run()
        assert fired == []
        assert env.now == 10.0
        assert env.events_cancelled == 1

    def test_cancelled_timeout_does_not_count_as_step(self, env):
        def proc(env):
            for _ in range(10):
                doomed = env.timeout(100.0)
                doomed.cancel()
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert env.events_cancelled == 10
        # Only real dispatches count: the process init + 10 sleeps.
        assert env.steps_executed < 10 + 10 + 5

    def test_interrupt_cancels_orphaned_timeout(self, env):
        """Interrupting a process sleeping on a timeout must lazily
        cancel that timeout instead of leaving it to fire into nothing."""

        def sleeper(env):
            try:
                yield env.timeout(1000.0)
            except Interrupt:
                yield env.timeout(1.0)

        def waker(env, victim):
            yield env.timeout(2.0)
            victim.interrupt("wake up")

        victim = env.process(sleeper(env))
        env.process(waker(env, victim))
        steps_before = None

        env.run(until=3.5)
        # The interrupted sleep resumed immediately and finished at t=3.
        assert env.now == pytest.approx(3.5)
        steps_before = env.steps_executed
        env.run()
        # Draining the queue pops the 1000 s orphan: the clock advances
        # (parity with the pre-freelist kernel, where the orphan fired
        # into an empty callback list) but no step is dispatched for it.
        assert env.events_cancelled >= 1
        assert env.steps_executed == steps_before


class TestPooledEventReuse:
    def test_pool_roundtrip_resets_state(self, env):
        """An event made after another was fired and dropped comes back
        with every field fresh."""

        def proc(env):
            first = env.event()
            first.succeed("payload")
            yield first
            del first
            yield env.timeout(0.1)
            second = env.event()
            assert not second.triggered
            assert second.callbacks == []
            assert not second.processed
            yield env.timeout(0.1)

        env.process(proc(env))
        env.run()

    def test_direct_event_construction_still_works(self, env):
        """Event(env) behaves like env.event()."""
        event = Event(env)
        event.succeed(42)
        result = []

        def proc(env):
            result.append((yield event))

        env.process(proc(env))
        env.run()
        assert result == [42]
