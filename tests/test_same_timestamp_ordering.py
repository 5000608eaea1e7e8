"""Same-timestamp event ordering is part of the determinism contract.

The kernel (`repro.sim.core`) has one run loop, and it pops the event
heap in `(time, seq)` order; nothing bypasses the heap, and a run split
by `run(until=...)` resumes in the same order.  The resulting guarantee
— events at one instant fire in scheduling order — is what keeps the
chaos and fleet goldens stable.

This test deliberately piles *every* event source the serving stack has
onto a single instant: plain process timeouts, the 1 s watchdog tick,
the KV-reclaim daemon's 5 ms grid, and four chaos faults (spike, stall,
throttle, instance kill) all collide at t = 12.0 s inside a live serve.
The full observable surface is hashed and pinned by the golden fixture
``tests/golden/same_timestamp_ordering.json``; any change to
intra-timestamp ordering shifts which request wins a contended slab
block or link slot and moves the digest.

Regenerate after an *intentional* serving-stack change with
``python -m tests.test_same_timestamp_ordering``.
"""

import hashlib
import json
from pathlib import Path

from repro.chaos import (
    FaultPlan,
    InstanceFailure,
    LatencySpike,
    LinkThrottle,
    TransferStall,
)
from repro.core import AegaeonConfig, SystemSpec, build_system
from repro.models import market_mix
from repro.obs import ObsConfig
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace

from .test_determinism import _canonical

GOLDEN = Path(__file__).parent / "golden" / "same_timestamp_ordering.json"

#: The shared collision instant: on the watchdog's 1 s grid and the
#: reclaim daemon's 5 ms grid, so their wakeups land exactly here too.
COLLIDE_AT = 12.0
HORIZON = 30.0
TRACE_SEED = 11


def collision_run(kernel=Environment):
    """One serve with every event source colliding at ``COLLIDE_AT``."""
    env = kernel()
    plan = FaultPlan.of(
        LatencySpike(at=COLLIDE_AT, factor=2.0, duration=1.0),
        TransferStall(at=COLLIDE_AT, direction="in", duration=0.4),
        LinkThrottle(at=COLLIDE_AT, factor=3.0, duration=1.0),
        InstanceFailure(at=COLLIDE_AT, instance="decode1"),
    )
    system = build_system(
        SystemSpec(
            config=AegaeonConfig(
                prefill_instances=1,
                decode_instances=2,
                cluster="h800-quad",
                obs=ObsConfig.metrics_only(),
            ),
            faults=plan,
            invariants=True,
        ),
        env,
    )
    trace = materialize_trace(
        market_mix(4), [0.2] * 4, sharegpt(), horizon=HORIZON, seed=TRACE_SEED
    )

    # Plain timeouts at the collision instant, scheduled before the
    # serve starts — they share the instant with the watchdog, reclaim,
    # and fault events, ordered among them by sequence number.
    def sleeper(env):
        yield env.timeout(COLLIDE_AT)

    for _ in range(4):
        env.process(sleeper(env))

    result = system.serve(trace, warm=False)
    return env, system, result


def snapshot_of(env, system, result):
    """The canonical full observable surface of one ``serve``."""
    return {
        "metrics": _canonical(result.metrics),
        "end_time": result.end_time,
        "sim_now": env.now,
        "steps": env.steps_executed,
        "requests": [
            [r.request_id, r.prefill_start, r.finish_time, list(r.token_times)]
            for r in result.requests
        ],
        "violations": len(system.invariant_checker.violations),
    }


def run_digest(kernel=Environment):
    """sha256 over the canonical full observable surface of one run."""
    snapshot = snapshot_of(*collision_run(kernel))
    payload = json.dumps(snapshot, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return digest, snapshot


class TestSameTimestampOrdering:
    def test_digest_matches_golden(self):
        fixture = json.loads(GOLDEN.read_text())
        digest, snapshot = run_digest()
        assert snapshot["steps"] == fixture["steps"]
        assert round(snapshot["end_time"], 6) == fixture["end_time"]
        assert digest == fixture["digest"], (
            "same-timestamp event ordering diverged from the golden "
            "fixture; if the serving stack changed intentionally, "
            "regenerate with `python -m tests.test_same_timestamp_ordering`"
        )

    def test_run_is_bitwise_repeatable(self):
        assert run_digest() == run_digest()

    def test_collision_sources_actually_fire(self):
        # The scenario is only a collision test while all four faults
        # deliver; guard against the setup silently drifting.
        env, system, result = collision_run()
        injector = system.fault_injector
        assert len(injector.delivered) == 4
        assert all(f.at == COLLIDE_AT for f in injector.plan)
        assert env.now > COLLIDE_AT


def regenerate_golden():
    """Rewrite the golden fixture from the current serving stack."""
    digest, snapshot = run_digest()
    fixture = {
        "description": (
            "Digest of a serve in which plain timeouts, the watchdog "
            "tick, the KV-reclaim grid, and four chaos faults all fire "
            "at t=12.0 s (market_mix(4), rate 0.2, horizon 30 s, trace "
            "seed 11, 1 prefill + 2 decode on h800-quad).  Pins the "
            "kernel's intra-timestamp ordering; the simulation is "
            "deterministic, so these exact values must reproduce on "
            "any machine.  Regenerate with "
            "`python -m tests.test_same_timestamp_ordering` after an "
            "intentional serving-stack change."
        ),
        "digest": digest,
        "steps": snapshot["steps"],
        "end_time": round(snapshot["end_time"], 6),
    }
    GOLDEN.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate_golden()
    print(f"rewrote {GOLDEN}")
