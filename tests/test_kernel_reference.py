"""Differential test: the production run loop against the reference kernel.

``tests/reference_kernel.py`` runs the same events through a plain loop:
``heappop``, generic dispatch through ``Process._resume``, and no
inlining.  The production loop lets a continuation run directly when its
event would be the next pop (``Environment.claim_inline``) and derives
its step count from sequence numbers; neither may change what a
simulation does.

Two layers check it:

* hypothesis draws random multi-actor programs — timeouts, store
  puts/gets, ``all_of``/``any_of`` composites, joins on other actors'
  processes and cross-actor interrupts — and runs each as generator
  processes on both kernels, split at a drawn ``run(until=t)`` stop.
  Both runs must give the same op-completion log (time, actor, op,
  kind, value), clock, step count and scheduled-event count.  Fixed
  programs pin a readable interleaving of every op kind and the
  attachment order on an event several actors wait on.
* full scenarios (the same-timestamp collision serve, the
  ingestion-equivalence trace for two systems, the cost-routed agentic
  golden replay, a seeded chaos sweep, and the controller fleet with a
  prefill kill) must give the same request rows, dispositions and
  digests on both kernels.  Their step counts differ by exactly the
  continuations the production kernel ran inline
  (``Environment.claim_inline``, which the reference kernel refuses);
  the random actor programs never ask, so their counts stay equal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt

from . import test_chaos_determinism, test_fleet_controller
from . import test_ingestion_equivalence, test_same_timestamp_ordering
from . import test_workload_agentic
from .outcomes import request_rows
from .reference_kernel import ReferenceEnvironment
from .reference_resources import Store

KERNELS = {"production": Environment, "reference": ReferenceEnvironment}

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

    Only a live actor currently parked on an event can be interrupted.  Self-interrupt is excluded —
    a running actor's wait target is the event it just woke from, so
    interrupting it would deliver after the actor already finished.
    """
    if target_id == aid:
        return None
    target = procs[target_id]
    if target.is_alive and target.target is not None:
        return target
    return None


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


def _run_split(kernel, program, stop):
    env = kernel()
    stores = [Store(env) for _ in range(N_STORES)]
    log: list = []
    procs: dict = {}
    for aid, ops in enumerate(program):
        procs[aid] = env.process(_gen_actor(env, aid, ops, stores, log, procs))
    env.run(until=stop)
    log.append(("stop", env.now, env.steps_executed))
    env.run()
    return log, env.now, env.steps_executed, env.events_scheduled


def _both_kernels(program, stop):
    runs = {kernel: _run_split(KERNELS[kernel], program, stop) for kernel in KERNELS}
    assert runs["reference"] == runs["production"]
    return runs["production"]


class TestRandomPrograms:
    @settings(max_examples=200, deadline=None)
    @given(
        program=_programs(),
        stop=st.integers(min_value=0, max_value=24).map(lambda n: n * 0.25),
    )
    def test_both_kernels_identical(self, program, stop):
        _both_kernels(program, stop)

    def test_known_interleaving(self):
        # A fixed schedule covering every op kind, as a readable anchor:
        # actor 1 feeds actor 0's get, actor 2 interrupts actor 0's
        # long timeout, composites race at a shared timestamp.
        program = [
            [("get", 0), ("timeout", 10.0), ("all_of", [0.5, 0.25])],
            [("timeout", 0.25), ("put", 0), ("any_of", [0.25, 0.25])],
            [("timeout", 0.5), ("interrupt", 0), ("timeout", 0.0)],
        ]
        log = _both_kernels(program, stop=0.0)[0]
        kinds = [(entry[1], entry[3]) for entry in log if entry[0] != "stop"]
        assert (0, "get") in kinds
        assert (0, "interrupted") in kinds
        assert (2, "interrupt") in kinds

    def test_shared_event_resumes_in_attachment_order(self):
        # Actor 0's end is one event with no waiter slot and three
        # callbacks: actor 1's any_of check attached first, then the
        # joins of actors 2 and 3.  The joins resume in that order while
        # the event fires; the any_of resumes actor 1 one event later.
        program = [
            [("timeout", 0.25)],
            [("join_any", [0]), ("timeout", 0.0)],
            [("join", 0), ("timeout", 0.0)],
            [("join", 0), ("timeout", 0.0)],
        ]
        log = _both_kernels(program, stop=0.0)[0]
        order = [(aid, kind) for _, aid, _, kind, _ in log[2:]]
        assert order == [
            (2, "join"),
            (3, "join"),
            (1, "join_any"),
            (2, "timeout"),
            (3, "timeout"),
            (1, "timeout"),
        ]


#: Counters that legitimately differ between the kernels: the
#: production loop runs ``steps_inlined`` continuations directly, each
#: one a step and a scheduled event the reference kernel pays for.
STEP_COUNTERS = ("steps", "sim/steps_executed", "sim/events_scheduled")


def _unstepped(snapshot):
    """``snapshot`` without its step counters."""
    seen = {k: v for k, v in snapshot.items() if k not in STEP_COUNTERS}
    seen["metrics"] = {
        k: v for k, v in snapshot["metrics"].items() if k not in STEP_COUNTERS
    }
    return seen


def _dispositions(registry):
    return (registry.submitted, registry.finished, registry.failed, registry.rejected)


def _serve_outcome(env, system, result):
    """Observable surface of one ``serve``, step counters left out."""
    return (
        _unstepped(test_same_timestamp_ordering.snapshot_of(env, system, result)),
        request_rows(result.requests),
        _dispositions(system.registry),
    )


def _collision(kernel):
    env, system, result = test_same_timestamp_ordering.collision_run(kernel)
    return _serve_outcome(env, system, result), env


def _chaos(fault_seed):
    def run(kernel):
        env, system, result = test_chaos_determinism.faulted_run(fault_seed, kernel)
        return _serve_outcome(env, system, result), env

    return run


def _ingestion(name):
    spec = test_ingestion_equivalence.SPECS[name]

    def run(kernel):
        env = kernel()
        served = test_ingestion_equivalence.via_serve(spec, env)
        # Everything the run reports but its step count (index 1).
        return served[:1] + served[2:], env

    return run


def _agentic(kernel):
    env = kernel()
    system, coordinator, result = test_workload_agentic.replay(
        test_workload_agentic.golden_stream(),
        bundle="aegaeon-cost-router",
        retain=True,
        env=env,
    )
    seen = (
        result.digest(),
        request_rows(system.proxy.requests),
        _dispositions(system.registry),
    )
    return seen, env


def _controller_fleet(kernel):
    fleet, stream = test_fleet_controller.controller_fleet(
        kill_prefill0=True, kernel=kernel
    )
    result = fleet.run(stream)
    assert result.drained and result.unaccounted == 0
    seen = (result.digest(), result.controller)
    return seen, fleet.env


def _assert_kernels_agree(scenario, inlines=True):
    """Same outcome on both kernels; steps differ by the inlined ones."""
    production, prod = scenario(Environment)
    reference, ref = scenario(ReferenceEnvironment)
    assert reference == production
    assert ref.now == prod.now
    assert ref.steps_inlined == 0
    assert (prod.steps_inlined > 0) == inlines
    assert ref.steps_executed == prod.steps_executed + prod.steps_inlined
    assert ref.events_scheduled == prod.events_scheduled + prod.steps_inlined


class TestScenarios:
    def test_same_timestamp_collision(self):
        _assert_kernels_agree(_collision)

    @pytest.mark.parametrize("name", ["aegaeon", "muxserve"])
    def test_ingestion_trace(self, name):
        # MuxServe keeps its models resident: no stream lane ever runs.
        _assert_kernels_agree(_ingestion(name), inlines=name != "muxserve")

    def test_agentic_cost_router(self):
        _assert_kernels_agree(_agentic)

    # The fault seeds of the chaos golden.
    @pytest.mark.parametrize("fault_seed", [1, 2, 3])
    def test_chaos_sweep(self, fault_seed):
        _assert_kernels_agree(_chaos(fault_seed))

    def test_controller_fleet_with_prefill_kill(self):
        _assert_kernels_agree(_controller_fleet)
