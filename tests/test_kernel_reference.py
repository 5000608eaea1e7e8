"""Differential test: the production run loop against the reference kernel.

``tests/reference_kernel.py`` runs the same events through a plain loop:
``heappop``, generic dispatch through ``Process._resume``, no inlining
and no recycling.  The production loop inlines the single-waiter resume
and recycles events by ``sys.getrefcount``; neither may change what a
simulation does.

Two layers check it:

* hypothesis draws the random actor programs of
  ``test_continuation_differential.py`` and runs each as generator
  processes and as ``ContTask`` machines on both kernels, split at a
  drawn ``run(until=t)`` stop.  All four runs must give the same log,
  clock, step count and scheduled-event count.  One fixed program
  also pins attachment order on an event several actors wait on.
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

from repro.sim import Environment

from . import test_chaos_determinism, test_fleet_controller
from . import test_ingestion_equivalence, test_same_timestamp_ordering
from . import test_workload_agentic
from .reference_kernel import ReferenceEnvironment
from .reference_resources import Store
from .test_continuation_differential import (
    N_STORES,
    _gen_actor,
    _programs,
    _TaskActor,
)

KERNELS = {"production": Environment, "reference": ReferenceEnvironment}


def _spawn_generator(env, *args):
    return env.process(_gen_actor(env, *args))


ACTORS = {"generator": _spawn_generator, "continuation": _TaskActor}


def _run_split(kernel, spawn, program, stop):
    env = kernel()
    stores = [Store(env) for _ in range(N_STORES)]
    log: list = []
    procs: dict = {}
    for aid, ops in enumerate(program):
        procs[aid] = spawn(env, aid, ops, stores, log, procs)
    env.run(until=stop)
    log.append(("stop", env.now, env.steps_executed))
    env.run()
    return log, env.now, env.steps_executed, env.events_scheduled


def _all_four(program, stop):
    runs = {
        (kernel, actor): _run_split(KERNELS[kernel], ACTORS[actor], program, stop)
        for kernel in KERNELS
        for actor in ACTORS
    }
    expected = runs["production", "generator"]
    for key, run in runs.items():
        assert run == expected, key
    return expected


class TestRandomPrograms:
    @settings(max_examples=200, deadline=None)
    @given(
        program=_programs(),
        stop=st.integers(min_value=0, max_value=24).map(lambda n: n * 0.25),
    )
    def test_all_four_runs_identical(self, program, stop):
        _all_four(program, stop)

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
        log = _all_four(program, stop=0.0)[0]
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


def _rows(requests):
    """Every request's id, disposition, token count and token times."""
    return [
        (r.request_id, r.phase.value, len(r.token_times), tuple(r.token_times))
        for r in sorted(requests, key=lambda r: r.request_id)
    ]


def _dispositions(registry):
    return (registry.submitted, registry.finished, registry.failed, registry.rejected)


def _serve_outcome(env, system, result):
    """Observable surface of one ``serve``, step counters left out."""
    return (
        _unstepped(test_same_timestamp_ordering.snapshot_of(env, system, result)),
        _rows(result.requests),
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
        rows, end_time, _ = test_ingestion_equivalence.via_serve(spec, env)
        return (rows, end_time), env

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
        _rows(system.proxy.requests),
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
