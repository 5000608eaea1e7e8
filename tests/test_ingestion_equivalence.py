"""One ingestion path: a single system is a one-shard fleet.

A :class:`~repro.workload.Trace` is a
:class:`~repro.workload.RequestStream`, so ``serve(trace)`` and a
retained one-shard fleet's ``run(trace)`` take it as it is and drive
the system through the same :func:`~repro.core.proxy.replay` driver
(one Pump, one DrainWatchdog).  On one trace they must agree on every
request's outcome, on the end time, and on the exact number of kernel
steps — for every policy bundle.
"""

import pytest

from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import FleetConfig, build_fleet
from repro.models import market_mix
from repro.policy import available_bundles, get_bundle
from repro.sim import Environment
from repro.workload import materialize_trace, sharegpt

from .outcomes import request_rows
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


def outcome(env, result):
    """Everything a run reports, plus its kernel step count."""
    return (
        request_rows(result.requests),
        env.steps_executed,
        result.summary(),
        result.digest(),
        result.end_time,
        result.cost_usd,
        result.gpu_hours,
        result.drained,
        result.unaccounted,
        len(result.scale_records),
    )


def via_serve(spec, env=None):
    env = Environment() if env is None else env
    return outcome(env, spec.build(env).serve(trace()))


def via_fleet(spec):
    env = Environment()
    fleet = build_fleet(
        FleetConfig(shards=1, spec=spec, retain_requests=True), env=env
    )
    result = fleet.run(trace())
    assert result.drained and result.unaccounted == 0
    return outcome(env, result)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_serve_paths_are_identical(name):
    spec = SPECS[name]
    served = via_serve(spec)
    rows, steps = served[:2]
    assert rows and steps > 0
    assert any(row[1] == "FINISHED" for row in rows)
    # The rows, steps, summary, digest, end time, bill, drain state and
    # scale history all agree.
    assert via_fleet(spec) == served


def test_one_shard_fleet_keeps_the_spec_drain_grace():
    # The fleet's drain deadline is the one serve() sets from the spec's
    # config: a 2 s grace cuts both runs at the same instant, undrained.
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=1, cluster="h800-pair",
            drain_grace=2.0,
        )
    )

    def load():
        return materialize_trace(
            market_mix(6), [0.5] * 6, sharegpt(), horizon=30.0, seed=3
        )

    served = spec.build().serve(load())
    fleeted = build_fleet(FleetConfig(shards=1, spec=spec)).run(load())
    assert not served.drained and served.unaccounted > 0
    # Both summaries record the cut, so a rollup JSON does too.
    for result in (served, fleeted):
        summary = result.summary()
        assert summary["drained"] is False
        assert summary["unaccounted"] > 0
    assert (fleeted.end_time, fleeted.drained, fleeted.unaccounted) == (
        served.end_time, served.drained, served.unaccounted
    )
    # Both paths fold the requests still in flight at the deadline, so
    # their missing tokens count as missed on both (§2.1).
    assert fleeted.slo_attainment == served.slo_attainment
    assert fleeted.digest() == served.digest()
    assert fleeted.rollup.total.requests == fleeted.submitted == len(served.requests)
