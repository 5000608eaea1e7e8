"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)

from .reference_kernel import ReferenceEnvironment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self, env):
        env.timeout(3.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_with_no_events_and_until(self, env):
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class TestTimeout:
    def test_fires_at_delay(self, env):
        times = []

        def proc():
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [2.5]

    def test_carries_value(self, env):
        got = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    @pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
    def test_timeout_at_fires_exactly_at_its_instant(self, kernel):
        # 0.0005 + (0.005 - 0.0005) rounds to 0.005000000000000001.
        env = kernel()
        times = []

        def proc():
            yield env.timeout(0.0005)
            assert env.now + (0.005 - env.now) != 0.005
            yield env.timeout_at(0.005)
            times.append(env.now)
            for _ in range(3):
                yield env.timeout_at(env.now + 1.0)
                times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [0.005, 1.005, 2.005, 3.005]
        with pytest.raises(SimulationError):
            env.timeout_at(env.now - 1.0)

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return env.now

        result = env.run(until=env.process(proc()))
        assert result == 3.0


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ["a", "b", "c"]:
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_peek_returns_next_event_time(self):
        env = ReferenceEnvironment()
        env.timeout(7.0)
        env.timeout(3.0)
        assert env.peek() == 3.0

    def test_peek_empty_is_inf(self):
        env = ReferenceEnvironment()
        assert env.peek() == float("inf")


class TestProcess:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return 42

        assert env.run(until=env.process(proc())) == 42

    def test_process_is_alive(self, env):
        def proc():
            yield env.timeout(5.0)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_waiting_on_another_process(self, env):
        def child():
            yield env.timeout(2.0)
            return "done"

        def parent():
            result = yield env.process(child())
            return (env.now, result)

        assert env.run(until=env.process(parent())) == (2.0, "done")

    def test_waiting_on_finished_process(self, env):
        def child():
            yield env.timeout(1.0)
            return "early"

        child_proc = env.process(child())

        def parent():
            yield env.timeout(5.0)
            result = yield child_proc  # already finished
            return result

        assert env.run(until=env.process(parent())) == "early"

    def test_process_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                return str(exc)

        assert env.run(until=env.process(parent())) == "boom"

    def test_unhandled_process_exception_surfaces(self, env):
        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("unobserved")

        env.process(proc())
        with pytest.raises(RuntimeError, match="unobserved"):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yield_non_event_rejected(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()


class TestEvent:
    def test_manual_succeed(self, env):
        gate = env.event()
        log = []

        def waiter():
            value = yield gate
            log.append((env.now, value))

        def opener():
            yield env.timeout(3.0)
            gate.succeed("open")

        env.process(waiter())
        env.process(opener())
        env.run()
        assert log == [(3.0, "open")]

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_multiple_waiters_all_resume(self, env):
        gate = env.event()
        resumed = []

        def waiter(tag):
            yield gate
            resumed.append(tag)

        env.process(waiter(1))
        env.process(waiter(2))
        gate.succeed()
        env.run()
        assert resumed == [1, 2]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            t1 = env.timeout(1.0, value="a")
            t2 = env.timeout(3.0, value="b")
            results = yield env.all_of([t1, t2])
            return (env.now, sorted(results.values()))

        assert env.run(until=env.process(proc())) == (3.0, ["a", "b"])

    def test_any_of_fires_on_first(self, env):
        def proc():
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(3.0, value="slow")
            results = yield env.any_of([t1, t2])
            return (env.now, list(results.values()))

        assert env.run(until=env.process(proc())) == (1.0, ["fast"])

    def test_all_of_empty_fires_immediately(self, env):
        def proc():
            yield env.all_of([])
            return env.now

        assert env.run(until=env.process(proc())) == 0.0

    def test_all_of_propagates_failure(self, env):
        def failing():
            yield env.timeout(1.0)
            raise KeyError("inner")

        def proc():
            try:
                yield env.all_of([env.process(failing()), env.timeout(5.0)])
            except KeyError:
                return "caught"

        assert env.run(until=env.process(proc())) == "caught"


class TestInterrupt:
    def test_interrupt_resumes_with_cause(self, env):
        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return (env.now, interrupt.cause)

        victim_process = env.process(victim())

        def attacker():
            yield env.timeout(2.0)
            victim_process.interrupt(cause="preempted")

        env.process(attacker())
        assert env.run(until=victim_process) == (2.0, "preempted")

    def test_interrupt_terminated_process_rejected(self, env):
        def quick():
            yield env.timeout(0.1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_old_target_does_not_resume_interrupted_process(self, env):
        resumes = []

        def victim():
            try:
                yield env.timeout(5.0)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
            yield env.timeout(100.0)

        victim_process = env.process(victim())

        def attacker():
            yield env.timeout(1.0)
            victim_process.interrupt()

        env.process(attacker())
        env.run(until=50.0)
        assert resumes == ["interrupt"]

    @pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
    def test_interrupt_unwinds_a_yield_from_chain_innermost_first(self, kernel):
        # The instance loops run their multi-wait sub-operations (a model
        # switch, a KV drain) through ``yield from``; an instance failure
        # interrupts them there.
        env = kernel()
        log = []

        def inner():
            try:
                yield env.timeout(10.0)
            finally:
                log.append(("inner finally", env.now))

        def middle():
            try:
                yield env.timeout(1.0)
                yield from inner()
                log.append("middle went on")
            finally:
                log.append(("middle finally", env.now))

        def outer():
            try:
                yield from middle()
            except Interrupt as interrupt:
                log.append(("outer caught", env.now, interrupt.cause))
            yield env.timeout(1.0)
            return env.now

        victim = env.process(outer())

        def attacker():
            yield env.timeout(3.0)
            victim.interrupt("instance failure")

        env.process(attacker())
        assert env.run(until=victim) == 4.0
        assert log == [
            ("inner finally", 3.0),
            ("middle finally", 3.0),
            ("outer caught", 3.0, "instance failure"),
        ]

    @pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
    def test_inner_generator_that_swallows_an_interrupt_resumes_its_caller(
        self, kernel
    ):
        env = kernel()
        log = []

        def inner():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                log.append(("inner swallowed", env.now))
                return "cut short"
            return "ran out"

        def middle():
            result = yield from inner()
            log.append(("middle resumed", env.now, result))
            yield env.timeout(2.0)
            return result

        def outer():
            result = yield from middle()
            log.append(("outer resumed", env.now, result))
            return result

        victim = env.process(outer())

        def attacker():
            yield env.timeout(3.0)
            victim.interrupt()

        env.process(attacker())
        assert env.run(until=victim) == "cut short"
        assert log == [
            ("inner swallowed", 3.0),
            ("middle resumed", 3.0, "cut short"),
            ("outer resumed", 5.0, "cut short"),
        ]
        assert victim.target is None and not victim.is_alive


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        def proc():
            yield env.timeout(2.0)
            return "finished"

        assert env.run(until=env.process(proc())) == "finished"

    def test_starved_until_event_raises(self, env):
        gate = env.event()
        with pytest.raises(SimulationError):
            env.run(until=gate)

    def test_resumed_run_keeps_heap_order(self, env):
        # Stopping on an event mid-instant and resuming must fire the
        # leftover same-instant events in (time, seq) order: T3 was
        # scheduled (seq 2) before X (seq 3, scheduled while T1 fired).
        log = []
        t1 = env.timeout(1.0)
        t1.callbacks.append(
            lambda e: (
                log.append("T1"),
                env.timeout(0).callbacks.append(lambda e: log.append("X")),
            )
        )
        stop = env.timeout(1.0)
        t3 = env.timeout(1.0)
        t3.callbacks.append(lambda e: log.append("T3"))
        env.run(until=stop)
        log.append("|")
        env.run()
        assert log == ["T1", "|", "T3", "X"]


class TestClaimInline:
    """``claim_inline`` says yes only when a skipped event would be next."""

    def test_first_turn_with_nothing_due(self, env):
        answers = []

        def proc():
            answers.append(env.claim_inline())
            yield env.timeout(1.0)
            answers.append(env.claim_inline())

        env.process(proc())
        env.run()
        assert answers == [True, True]
        assert env.steps_inlined == 2

    def test_refused_while_other_work_is_due_now(self, env):
        answers = []

        def proc():
            env.timeout(0)
            answers.append(env.claim_inline())
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert answers == [False]
        assert env.steps_inlined == 0

    def test_refused_in_a_plain_callback(self, env):
        answers = []
        env.timeout(1.0).callbacks.append(
            lambda e: answers.append(env.claim_inline())
        )
        env.run()
        assert answers == [False]

    def test_refused_while_the_waking_event_has_callbacks(self, env):
        gate = env.timeout(1.0)
        answers = []

        def waiter(name):
            yield gate
            answers.append((name, env.claim_inline()))
            # Scheduled after the answer, and not due now either way.
            yield env.timeout(1.0)

        # The first waiter takes the single slot; the second and the
        # plain callback are still to run when it resumes.
        env.process(waiter("slot"))
        env.process(waiter("listed"))
        env.run(until=0.5)
        gate.callbacks.append(lambda e: None)
        env.run()
        assert answers == [("slot", False), ("listed", False)]
        assert env.steps_inlined == 0
