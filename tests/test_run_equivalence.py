"""Whole-system differential: runs against the per-op references.

A run (``repro.sim.Run``) retires many waits with one timeout, and is
correct only if everything that could see one of its boundaries splits
or settles it first.  The per-layer differentials (``test_load_runs``,
``test_decode_runs``) check each run owner on a hand-built harness;
this file checks the assembled system, so an observer the harness never
wires shows up here.  Each case is served twice: as is, and with every
decode turn chunk by chunk (``reference_decode.per_chunk``) and every
weight load op by op (``reference_loader.per_chunk``).  Both sides must
give the same digest, request rows (token times by ``float.hex``), met
tokens and summary.

The cases: every bundle's small serve, drained and cut by a deadline;
a 3-shard forecast-controller fleet under seeded faults; the three
simbench workloads at scale 0.05 (their outcomes minus the step
counts); and the traced Aegaeon serve, whose spans agree as a multiset
(a run records a stretch of spans when it lands, so their recording
order differs from the per-op chain's by design).

After every case, no link, slab allocator or CUDA event may still name
a run that has left its environment's registry (``Environment.runs``),
and a drained serve leaves no decode run in it.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core import SystemSpec
from repro.core.instance import DecodeRun
from repro.hardware.interconnect import Link
from repro.memory import SlabAllocator
from repro.obs import ObsConfig
from repro.policy import available_bundles, get_bundle
from repro.sim import Environment
from repro.transfer import CudaEvent

from . import reference_decode, reference_loader
from .outcomes import request_rows
from .test_reclaim_reference import _simbench_workloads
from .test_serving_api import small_config
from .test_traced_parity import _trace, fleet_run

#: A deadline that cuts the small serves with runs in flight.
CUT = 17.3


def _both(case):
    """``case()`` as is, then under both per-op references."""
    served = case()
    with reference_decode.per_chunk(), reference_loader.per_chunk():
        reference = case()
    return served, reference


def _assert_registry_holds(envs, drained: bool) -> None:
    """Only a live run is reachable from a resource of ``envs``, and a
    drained run leaves no decode run behind."""
    for obj in gc.get_objects():
        if isinstance(obj, (Link, SlabAllocator, CudaEvent)):
            run = obj._run
            if run is not None and run.env in envs:
                assert run in run.env.runs, (obj, run)
    if drained:
        for env in envs:
            assert not any(isinstance(run, DecodeRun) for run in env.runs)


def _outcome(result) -> tuple:
    requests = sorted(result.requests, key=lambda r: r.request_id)
    return (
        result.digest(),
        request_rows(requests),
        [r.met_tokens for r in requests],
        result.summary(),
    )


def _serve(bundle: str, until, obs: ObsConfig = ObsConfig.metrics_only()):
    system = get_bundle(bundle).system
    spec = SystemSpec(system=system, config=small_config(system, obs=obs), policies=bundle)
    env = Environment()
    result = spec.build(env).serve(_trace(), until=until)
    _assert_registry_holds([env], result.drained)
    return result


@pytest.mark.parametrize("until", [None, CUT], ids=["drained", "cut"])
@pytest.mark.parametrize("bundle", sorted(available_bundles()))
def test_every_bundle_serves_as_the_per_op_references(bundle, until):
    served, reference = _both(lambda: _serve(bundle, until))
    assert served.drained is (until is None)
    assert _outcome(served) == _outcome(reference)


def test_faulted_controller_fleet_serves_as_the_per_op_references():
    def case():
        env, fleet, result = fleet_run(ObsConfig.off())
        _assert_registry_holds([env], result.drained)
        return result

    served, reference = _both(case)
    assert _outcome(served) == _outcome(reference)


@pytest.mark.parametrize("name", ["fleet_market", "fleet_control", "pool_sweep"])
def test_simbench_workload_replays_as_the_per_op_references(name):
    workloads = _simbench_workloads()
    workload = workloads.WORKLOADS[name]

    def case():
        dispositions = workloads.Dispositions()
        undo = workloads.install_fold_tap(dispositions) if workload.fleet else None
        try:
            replay = workload.build(1, 0.05, dispositions)
            replay.replay()
        finally:
            if undo is not None:
                undo()
        if workload.fleet:
            envs, results = [replay.fleet.env], [replay.result]
        else:
            envs = [system.env for _, system, _ in replay.points]
            results = replay.results
        _assert_registry_holds(envs, all(result.drained for result in results))
        outcome = replay.outcome()
        outcome.pop("fingerprint")  # hashes the step count
        for key in ("sim.steps", "sim.events_scheduled"):
            outcome["counters"].pop(key)
        return dispositions._digest.hexdigest(), outcome

    served, reference = _both(case)
    assert served == reference
    assert not served[1]["problems"]


@pytest.mark.parametrize("until", [None, CUT], ids=["drained", "cut"])
def test_traced_serve_records_the_per_op_spans(until):
    def case():
        result = _serve("aegaeon", until, ObsConfig.full())
        tracer = result.obs.tracer
        spans = Counter(
            (s.name, s.cat, s.track, s.start.hex(), s.end.hex(), s.parent,
             tuple(sorted(s.args.items())))
            for s in tracer.spans
        )
        instants = [
            (i.name, i.cat, i.track, i.ts.hex(), sorted(i.args.items()))
            for i in tracer.instants
        ]
        return _outcome(result), spans, instants

    served, reference = _both(case)
    assert served == reference
