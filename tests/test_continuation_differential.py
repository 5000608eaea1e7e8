"""Differential test: continuation machines vs generator processes.

The tentpole refactor rewrote the hot-path lifecycles as explicit
:class:`~repro.sim.ContTask` state machines with the contract that a
converted lifecycle is *indistinguishable* from its generator form —
same events, same firing order, same clocks, same consumed sequence
numbers.  This property test checks the contract at the kernel level:
hypothesis draws a random multi-actor schedule of timeouts, store
puts/gets, ``all_of``/``any_of`` composites, joins on other actors'
processes, and cross-actor interrupts, runs it once with every actor
as a generator process and once with every actor as a hand-flattened
``ContTask``, and requires the two executions to be identical —
op-completion log (time, actor, op, kind, value), final clock,
dispatched step count, and scheduled event count all byte-equal.

Any divergence — a continuation consuming an extra event, firing in a
different order at a shared timestamp, or surfacing an interrupt to a
different op — fails with a shrunk schedule that reproduces it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ContTask, Environment, Interrupt

from .reference_resources import Store

N_STORES = 2

# Delays on a coarse grid: collisions at shared timestamps are the
# interesting case (same-timestamp (time, seq) ordering), so make them
# likely; exact float equality across the two runs is trivially safe
# because both runs do identical arithmetic.
_delays = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)
_store_ids = st.integers(min_value=0, max_value=N_STORES - 1)


def _ops(n_actors: int) -> st.SearchStrategy:
    actor_ids = st.integers(min_value=0, max_value=n_actors - 1)
    return st.one_of(
        st.tuples(st.just("timeout"), _delays),
        st.tuples(st.just("put"), _store_ids),
        st.tuples(st.just("get"), _store_ids),
        st.tuples(st.just("all_of"), st.lists(_delays, min_size=1, max_size=3)),
        st.tuples(st.just("any_of"), st.lists(_delays, min_size=1, max_size=3)),
        st.tuples(st.just("interrupt"), actor_ids),
        # Joins share one process event among several waiters and
        # conditions, and a join on a finished actor takes the relay
        # path.  A self-join never fires, like any wait on itself.
        st.tuples(st.just("join"), actor_ids),
        st.tuples(st.just("join_any"), st.lists(actor_ids, min_size=1, max_size=3)),
    )


@st.composite
def _programs(draw) -> list[list[tuple]]:
    """One script (a list of ops) per actor."""
    n_actors = draw(st.integers(min_value=1, max_value=4))
    return draw(
        st.lists(
            st.lists(_ops(n_actors), max_size=6),
            min_size=n_actors,
            max_size=n_actors,
        )
    )


def _interrupt_target(procs: dict, aid: int, target_id: int):
    """The interruptible target, or None.

    Both implementations guard identically: only a live actor currently
    parked on an event can be interrupted.  Self-interrupt is excluded —
    a running actor's wait target is the event it just woke from, so
    interrupting it would deliver after the actor already finished.
    """
    if target_id == aid:
        return None
    target = procs[target_id]
    if target.is_alive and target.target is not None:
        return target
    return None


# -- reference implementation: one generator process per actor ---------------

def _gen_actor(env, aid, ops, stores, log, procs):
    for i, op in enumerate(ops):
        kind = op[0]
        try:
            if kind == "timeout":
                yield env.timeout(op[1])
                log.append((env.now, aid, i, kind, None))
            elif kind == "put":
                yield stores[op[1]].put((aid, i))
                log.append((env.now, aid, i, kind, None))
            elif kind == "get":
                item = yield stores[op[1]].get()
                log.append((env.now, aid, i, kind, item))
            elif kind == "all_of":
                yield env.all_of([env.timeout(d) for d in op[1]])
                log.append((env.now, aid, i, kind, None))
            elif kind == "any_of":
                yield env.any_of([env.timeout(d) for d in op[1]])
                log.append((env.now, aid, i, kind, None))
            elif kind == "join":
                yield procs[op[1]]
                log.append((env.now, aid, i, kind, None))
            elif kind == "join_any":
                yield env.any_of([procs[t] for t in op[1]])
                log.append((env.now, aid, i, kind, None))
            else:  # interrupt: synchronous, no yield
                target = _interrupt_target(procs, aid, op[1])
                if target is not None:
                    target.interrupt((aid, i))
                log.append((env.now, aid, i, kind, None))
        except Interrupt as exc:
            log.append((env.now, aid, i, "interrupted", str(exc.cause)))


# -- subject implementation: one continuation machine per actor --------------

class _TaskActor(ContTask):
    __slots__ = ("_aid", "_ops", "_stores", "_log", "_procs", "_i")

    def __init__(self, env, aid, ops, stores, log, procs):
        self._aid = aid
        self._ops = ops
        self._stores = stores
        self._log = log
        self._procs = procs
        self._i = 0
        ContTask.__init__(self, env)

    def _start(self, value):
        return self._next()

    def _next(self):
        ops = self._ops
        env = self.env
        while self._i < len(ops):
            op = ops[self._i]
            kind = op[0]
            if kind == "timeout":
                self._send = self._done
                return env.timeout(op[1])
            if kind == "put":
                self._send = self._done
                return self._stores[op[1]].put((self._aid, self._i))
            if kind == "get":
                self._send = self._done
                return self._stores[op[1]].get()
            if kind == "all_of":
                self._send = self._done
                return env.all_of([env.timeout(d) for d in op[1]])
            if kind == "any_of":
                self._send = self._done
                return env.any_of([env.timeout(d) for d in op[1]])
            if kind == "join":
                self._send = self._done
                return self._procs[op[1]]
            if kind == "join_any":
                self._send = self._done
                return env.any_of([self._procs[t] for t in op[1]])
            # interrupt: synchronous, no wait
            target = _interrupt_target(self._procs, self._aid, op[1])
            if target is not None:
                target.interrupt((self._aid, self._i))
            self._log.append((env.now, self._aid, self._i, kind, None))
            self._i += 1
        raise StopIteration(None)

    def _done(self, value):
        op = self._ops[self._i]
        kind = op[0]
        self._log.append(
            (self.env.now, self._aid, self._i, kind,
             value if kind == "get" else None)
        )
        self._i += 1
        return self._next()

    def _on_throw(self, exc):
        if isinstance(exc, Interrupt):
            self._log.append(
                (self.env.now, self._aid, self._i, "interrupted", str(exc.cause))
            )
            self._i += 1
            return self._next()
        raise exc


# -- the differential runs ---------------------------------------------------

def _run_reference(program):
    env = Environment()
    stores = [Store(env) for _ in range(N_STORES)]
    log: list = []
    procs: dict = {}
    for aid, ops in enumerate(program):
        procs[aid] = env.process(_gen_actor(env, aid, ops, stores, log, procs))
    env.run()
    return log, env.now, env.steps_executed, env.events_scheduled


def _run_continuations(program):
    env = Environment()
    stores = [Store(env) for _ in range(N_STORES)]
    log: list = []
    procs: dict = {}
    for aid, ops in enumerate(program):
        procs[aid] = _TaskActor(env, aid, ops, stores, log, procs)
    env.run()
    return log, env.now, env.steps_executed, env.events_scheduled


class TestContinuationDifferential:
    @settings(max_examples=200, deadline=None)
    @given(program=_programs())
    def test_firing_order_and_clocks_identical(self, program):
        ref_log, ref_now, ref_steps, ref_events = _run_reference(program)
        task_log, task_now, task_steps, task_events = _run_continuations(program)
        assert task_log == ref_log
        assert task_now == ref_now
        assert task_steps == ref_steps
        assert task_events == ref_events

    def test_known_interleaving(self):
        # A fixed schedule covering every op kind, as a readable anchor:
        # actor 1 feeds actor 0's get, actor 2 interrupts actor 0's
        # long timeout, composites race at a shared timestamp.
        program = [
            [("get", 0), ("timeout", 10.0), ("all_of", [0.5, 0.25])],
            [("timeout", 0.25), ("put", 0), ("any_of", [0.25, 0.25])],
            [("timeout", 0.5), ("interrupt", 0), ("timeout", 0.0)],
        ]
        ref = _run_reference(program)
        task = _run_continuations(program)
        assert task == ref
        log = ref[0]
        kinds = [(entry[1], entry[3]) for entry in log]
        assert (0, "get") in kinds
        assert (0, "interrupted") in kinds
        assert (2, "interrupt") in kinds
