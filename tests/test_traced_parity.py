"""One execution path, traced or not.

Tracing records spans and instants around the work a run does; it must
never change the work.  A serve with ``ObsConfig.full()`` and one with
observability off must schedule and fire the same kernel events and
dispose of every request the same way, for every policy bundle and for
a controller fleet under faults.  The traced span and instant lists of
one Aegaeon serve are pinned by digest, so a rewrite of the instance
loops keeps every span's name, category, track, times, parent and
arguments.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos import FaultPlan
from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import ControllerConfig, FleetConfig, build_fleet
from repro.models import market_mix
from repro.obs import ObsConfig
from repro.policy import available_bundles, get_bundle
from repro.sim import Environment
from repro.workload import market_stream, materialize_trace, sharegpt

from .outcomes import request_rows
from .test_serving_api import small_config

OBS_LEVELS = {"off": ObsConfig.off(), "full": ObsConfig.full()}


def _trace():
    return materialize_trace(
        market_mix(5), [0.25, 0.2, 0.15, 0.1, 0.05], sharegpt(), horizon=40.0, seed=13
    )


def _served(bundle: str, obs: ObsConfig):
    system = get_bundle(bundle).system
    spec = SystemSpec(system=system, config=small_config(system, obs=obs), policies=bundle)
    env = Environment()
    result = spec.build(env).serve(_trace())
    return (
        env.steps_executed,
        env.events_scheduled,
        result.digest(),
        request_rows(result.requests),
    )


def fleet_run(obs: ObsConfig):
    """The 3-shard forecast-controller fleet under seeded faults, run:
    ``(env, fleet, result)``."""
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=3, cluster="h800-quad", obs=obs
        ),
        policies="aegaeon-slo-admission",
        faults=FaultPlan.seeded(
            5, horizon=40.0, count=4, instances=("decode1", "decode2")
        ),
    )
    env = Environment()
    fleet = build_fleet(
        FleetConfig(
            shards=3,
            spec=spec,
            retain_requests=True,
            obs=obs,
            controller=ControllerConfig(policy="forecast"),
        ),
        env=env,
    )
    stream = market_stream(12, 40.0, seed=4, total_rate=4.0)
    for model in stream.models:
        fleet.partitioner.pin(model.name, 0)
    return env, fleet, fleet.run(stream)


def _fleet(obs: ObsConfig):
    env, fleet, result = fleet_run(obs)
    rows = [request_rows(shard.system.proxy.requests) for shard in fleet.shards]
    return env.steps_executed, env.events_scheduled, result.digest(), rows


def span_digest(tracer) -> str:
    """Digest of every recorded span and instant, in recording order."""
    h = hashlib.sha256()
    for span in tracer.spans:
        h.update(repr((
            span.name, span.cat, span.track, span.start.hex(), span.end.hex(),
            span.parent, sorted(span.args.items()),
        )).encode())
    for instant in tracer.instants:
        h.update(repr((
            instant.name, instant.cat, instant.track, instant.ts.hex(),
            sorted(instant.args.items()),
        )).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("bundle", sorted(available_bundles()))
def test_serve_traced_equals_untraced(bundle):
    untraced = _served(bundle, OBS_LEVELS["off"])
    assert untraced[0] > 0 and untraced[3]
    assert _served(bundle, OBS_LEVELS["full"]) == untraced


def test_faulted_controller_fleet_traced_equals_untraced():
    untraced = _fleet(OBS_LEVELS["off"])
    assert _fleet(OBS_LEVELS["full"]) == untraced


def test_traced_spans_and_instants_are_pinned():
    env = Environment()
    spec = SystemSpec(config=AegaeonConfig(
        prefill_instances=2, decode_instances=2, cluster="h800-quad",
        obs=ObsConfig.full(),
    ))
    system = spec.build(env)
    trace = materialize_trace(market_mix(8), [0.5] * 8, sharegpt(), 20.0, seed=3)
    result = system.serve(trace)
    tracer = result.obs.tracer
    assert result.drained
    assert (len(tracer.spans), len(tracer.instants)) == (4229, 741)
    assert span_digest(tracer) == "08609a0c6eddf820"
