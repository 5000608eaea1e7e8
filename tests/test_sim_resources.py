"""Tests for the reference queues: Resource, Container, Store."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError

from .reference_resources import Container, PriorityResource, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_grant_within_capacity(self, env):
        resource = Resource(env, capacity=2)
        grants = []

        def user(tag):
            with resource.request() as claim:
                yield claim
                grants.append((tag, env.now))
                yield env.timeout(1.0)

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert grants == [("a", 0.0), ("b", 0.0)]

    def test_queueing_is_fifo(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def user(tag, hold):
            with resource.request() as claim:
                yield claim
                order.append((tag, env.now))
                yield env.timeout(hold)

        env.process(user("a", 2.0))
        env.process(user("b", 1.0))
        env.process(user("c", 1.0))
        env.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_count_tracks_users(self, env):
        resource = Resource(env, capacity=3)

        def user():
            with resource.request() as claim:
                yield claim
                yield env.timeout(1.0)

        env.process(user())
        env.process(user())
        env.run(until=0.5)
        assert resource.count == 2
        env.run()
        assert resource.count == 0

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_interrupted_waiter_withdraws_claim(self, env):
        resource = Resource(env, capacity=1)

        def holder():
            with resource.request() as claim:
                yield claim
                yield env.timeout(10.0)

        def waiter():
            with resource.request() as claim:
                try:
                    yield claim
                except Interrupt:
                    return "interrupted"

        env.process(holder())
        waiter_proc = env.process(waiter())

        def attacker():
            yield env.timeout(1.0)
            waiter_proc.interrupt()

        env.process(attacker())
        assert env.run(until=waiter_proc) == "interrupted"
        assert len(resource.queue) == 0


class TestPriorityResource:
    def test_lower_priority_value_wins(self, env):
        resource = PriorityResource(env, capacity=1)
        order = []

        def user(tag, priority):
            with resource.request(priority=priority) as claim:
                yield claim
                order.append(tag)
                yield env.timeout(1.0)

        def spawn():
            # First user takes the resource; others queue.
            env.process(user("first", 0))
            yield env.timeout(0.1)
            env.process(user("low", 5))
            env.process(user("high", 1))

        env.process(spawn())
        env.run()
        assert order == ["first", "high", "low"]

    def test_fifo_tie_break(self, env):
        resource = PriorityResource(env, capacity=1)
        order = []

        def user(tag):
            with resource.request(priority=1) as claim:
                yield claim
                order.append(tag)
                yield env.timeout(1.0)

        def spawn():
            env.process(user("a"))
            yield env.timeout(0.1)
            env.process(user("b"))
            env.process(user("c"))

        env.process(spawn())
        env.run()
        assert order == ["a", "b", "c"]


class TestContainer:
    def test_get_blocks_until_put(self, env):
        container = Container(env, capacity=100.0)
        log = []

        def consumer():
            amount = yield container.get(10.0)
            log.append((env.now, amount))

        def producer():
            yield env.timeout(3.0)
            yield container.put(10.0)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert log == [(3.0, 10.0)]

    def test_put_blocks_at_capacity(self, env):
        container = Container(env, capacity=10.0, init=10.0)
        log = []

        def producer():
            yield container.put(5.0)
            log.append(env.now)

        def consumer():
            yield env.timeout(2.0)
            yield container.get(5.0)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [2.0]

    def test_level_tracks(self, env):
        container = Container(env, capacity=10.0, init=4.0)

        def proc():
            yield container.get(1.0)
            yield container.put(3.0)

        env.process(proc())
        env.run()
        assert container.level == 6.0

    def test_invalid_init_rejected(self, env):
        with pytest.raises(SimulationError):
            Container(env, capacity=5.0, init=6.0)


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer():
            for item in ["x", "y", "z"]:
                yield store.put(item)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == ["x", "y", "z"]

    def test_get_blocks_when_empty(self, env):
        store = Store(env)
        log = []

        def consumer():
            item = yield store.get()
            log.append((env.now, item))

        def producer():
            yield env.timeout(4.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert log == [(4.0, "late")]

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            yield store.put(2)
            log.append(env.now)

        def consumer():
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [5.0]

    def test_filtered_get(self, env):
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get(lambda x: x % 2 == 0)
            got.append(item)

        def producer():
            yield store.put(1)
            yield store.put(3)
            yield store.put(4)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [4]
        assert store.items == [1, 3]

    def test_filtered_get_does_not_block_later_getters(self, env):
        store = Store(env)
        got = []

        def picky():
            item = yield store.get(lambda x: x == "never")
            got.append(("picky", item))

        def easy():
            item = yield store.get()
            got.append(("easy", item))

        env.process(picky())
        env.process(easy())

        def producer():
            yield store.put("anything")

        env.process(producer())
        env.run()
        assert got == [("easy", "anything")]

    def test_len(self, env):
        store = Store(env)

        def producer():
            yield store.put("a")
            yield store.put("b")

        env.process(producer())
        env.run()
        assert len(store) == 2
