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
* three full scenarios (the same-timestamp collision serve, the
  ingestion-equivalence trace for two systems, and the controller fleet
  with a prefill kill) must give the same digest and step count on both
  kernels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

from . import test_fleet_controller, test_ingestion_equivalence
from . import test_same_timestamp_ordering
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


class TestScenarios:
    def test_same_timestamp_collision(self):
        production = test_same_timestamp_ordering.run_digest()
        reference = test_same_timestamp_ordering.run_digest(ReferenceEnvironment)
        assert reference == production

    @pytest.mark.parametrize("name", sorted(test_ingestion_equivalence.SPECS))
    def test_ingestion_trace(self, name):
        spec = test_ingestion_equivalence.SPECS[name]
        production = test_ingestion_equivalence.via_serve(spec)
        reference = test_ingestion_equivalence.via_serve(spec, ReferenceEnvironment)
        assert reference == production

    def test_controller_fleet_with_prefill_kill(self):
        outcomes = []
        for kernel in KERNELS.values():
            fleet, stream = test_fleet_controller.controller_fleet(
                kill_prefill0=True, kernel=kernel
            )
            result = fleet.run(stream)
            outcomes.append(
                (
                    test_fleet_controller.digest(result),
                    fleet.env.steps_executed,
                    fleet.env.events_scheduled,
                    result.controller,
                )
            )
        assert outcomes[0] == outcomes[1]
