"""Edge cases for the simulation kernel beyond the basic suites."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError

from .reference_kernel import ReferenceEnvironment


@pytest.fixture
def env():
    return Environment()


class TestConditionsOverProcesses:
    def test_all_of_mixed_processes_and_timeouts(self, env):
        def worker(duration, value):
            yield env.timeout(duration)
            return value

        def main():
            results = yield env.all_of(
                [
                    env.process(worker(1.0, "a")),
                    env.process(worker(2.0, "b")),
                    env.timeout(0.5, value="t"),
                ]
            )
            return sorted(str(v) for v in results.values())

        assert env.run(until=env.process(main())) == ["a", "b", "t"]

    def test_any_of_failure_propagates(self, env):
        def failing():
            yield env.timeout(0.5)
            raise RuntimeError("inner")

        def main():
            try:
                yield env.any_of([env.process(failing()), env.timeout(10.0)])
            except RuntimeError as exc:
                return f"caught {exc}"

        assert env.run(until=env.process(main())) == "caught inner"

    def test_nested_conditions(self, env):
        def main():
            inner = env.any_of([env.timeout(1.0, "fast"), env.timeout(5.0, "slow")])
            yield env.all_of([inner, env.timeout(2.0)])
            return env.now

        assert env.run(until=env.process(main())) == 2.0


class TestInterruptEdges:
    def test_interrupt_chain(self, env):
        log = []

        def victim():
            for attempt in range(3):
                try:
                    yield env.timeout(100.0)
                except Interrupt as interrupt:
                    log.append((env.now, interrupt.cause))
            return "survived"

        victim_process = env.process(victim())

        def attacker():
            for round_index in range(3):
                yield env.timeout(1.0)
                victim_process.interrupt(cause=round_index)

        env.process(attacker())
        assert env.run(until=victim_process) == "survived"
        assert log == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_interrupt_while_waiting_on_process(self, env):
        def child():
            yield env.timeout(50.0)
            return "child done"

        child_process = env.process(child())

        def parent():
            try:
                yield child_process
            except Interrupt:
                return ("interrupted", env.now)

        parent_process = env.process(parent())

        def attacker():
            yield env.timeout(2.0)
            parent_process.interrupt()

        env.process(attacker())
        assert env.run(until=parent_process) == ("interrupted", 2.0)
        # The child keeps running, unaffected.
        env.run(until=child_process)
        assert child_process.value == "child done"


class TestRunSemantics:
    def test_run_until_already_processed_event(self, env):
        def quick():
            yield env.timeout(1.0)
            return 7

        process = env.process(quick())
        env.run()
        # Running until an already-finished process returns immediately.
        assert env.run(until=process) == 7

    def test_step_on_empty_raises(self):
        with pytest.raises(SimulationError):
            ReferenceEnvironment().step()

    def test_active_process_visible_inside(self, env):
        observed = []

        def proc():
            observed.append(env.active_process)
            yield env.timeout(0.1)

        process = env.process(proc())
        env.run()
        assert observed == [process]
        assert env.active_process is None

    def test_simultaneous_interleaving_is_creation_ordered(self, env):
        order = []

        def make(tag):
            def proc():
                for _ in range(3):
                    order.append(tag)
                    yield env.timeout(1.0)

            return proc

        env.process(make("x")())
        env.process(make("y")())
        env.run()
        assert order == ["x", "y"] * 3


class TestNanTimes:
    """A NaN time is rejected loudly: as a heap key it breaks the order,
    firing ahead of earlier events with the clock set to NaN."""

    @pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
    def test_nan_is_rejected_everywhere_a_time_enters(self, kernel):
        env = kernel()
        nan = float("nan")
        fired = []
        for delay in (0.5, 1.0):
            env.timeout(delay).callbacks.append(lambda ev: fired.append(env.now))
        with pytest.raises(SimulationError):
            env.timeout(nan)
        with pytest.raises(SimulationError):
            env.timeout_at(nan)
        with pytest.raises(SimulationError):
            env.run(until=nan)
        assert env.now == 0.0
        env.run()
        assert fired == [0.5, 1.0]
        assert env.now == 1.0
