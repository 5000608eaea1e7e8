"""One ingestion path: a single system is a one-shard fleet.

``serve(trace)``, ``serve_stream(stream_of_trace(trace))`` and a
retained one-shard fleet all drive the system through the same
:func:`~repro.core.proxy.replay` driver (one Pump, one DrainWatchdog),
so on one trace they must agree on every request's outcome, on the end
time, and on the exact number of kernel steps — for every policy bundle.
"""

import pytest

from repro.core import SystemSpec
from repro.fleet import FleetConfig, build_fleet
from repro.models import market_mix
from repro.policy import available_bundles, get_bundle
from repro.sim import Environment
from repro.workload import materialize_trace, sharegpt, stream_of_trace

from .test_serving_api import small_config


def bundle_spec(name):
    """The smallest deployment of the system ``name``'s bundle steers."""
    system = get_bundle(name).system
    return SystemSpec(system=system, config=small_config(system), policies=name)


SPECS = {name: bundle_spec(name) for name in available_bundles()}


def trace():
    models = market_mix(5)
    return materialize_trace(
        models, [0.25, 0.2, 0.15, 0.1, 0.05], sharegpt(), horizon=40.0, seed=13
    )


def outcome(env, requests, end_time):
    rows = [
        (r.request_id, r.phase.value, tuple(r.token_times))
        for r in sorted(requests, key=lambda r: r.request_id)
    ]
    return rows, end_time, env.steps_executed


def via_serve(spec, env=None):
    env = Environment() if env is None else env
    result = spec.build(env).serve(trace())
    return outcome(env, result.requests, result.end_time)


def via_serve_stream(spec):
    env = Environment()
    result = spec.build(env).serve_stream(stream_of_trace(trace()))
    return outcome(env, result.requests, result.end_time)


def via_fleet(spec):
    env = Environment()
    fleet = build_fleet(
        FleetConfig(shards=1, spec=spec, retain_requests=True), env=env
    )
    result = fleet.run(stream_of_trace(trace()))
    assert result.drained and result.unaccounted == 0
    return outcome(env, fleet.shards[0].system.proxy.requests, result.end_time)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_serve_paths_are_identical(name):
    spec = SPECS[name]
    served = via_serve(spec)
    rows, _, steps = served
    assert rows and steps > 0
    assert any(phase == "finished" for _, phase, _ in rows)
    assert via_serve_stream(spec) == served
    assert via_fleet(spec) == served
