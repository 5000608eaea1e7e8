"""The perf gate (`benchmarks/perf/run.py`) times a change against its parent.

Each job runs in pairs on one host; it fails when the median per-pair
ratio of parent time to change time, the change's relative throughput,
is more than 30% below 1.  The host-independent counters (kernel steps,
simulated end time, requests) must repeat the committed file's exactly,
and a scenario with no committed entry fails.
"""

import json

import pytest

from benchmarks.perf.run import (
    COUNTERS,
    COUNTERS_FILE,
    check_counters,
    judge,
    render_summary,
)
from benchmarks.perf.scenarios import FULL_SCENARIOS, SCENARIOS

PINNED = {"switch_storm": {"sim_steps": 1000, "sim_end": 118.0, "requests": 218}}
SAME = {"wall_s": 0.9, "sim_steps": 1000, "sim_end": 118.0, "requests": 218}


def _job(parent_walls, change_walls, metric="wall_s"):
    return {
        "metric": metric,
        "parent": [{metric: wall} for wall in parent_walls],
        "change": [{metric: wall} for wall in change_walls],
    }


def _ratios(ratios, parent_wall=2.0):
    """A job whose pairs have these parent/change throughput ratios."""
    return _job([parent_wall] * len(ratios), [parent_wall / r for r in ratios])


def test_an_a_a_spread_passes():
    # The spread 10 alternating A/A pairs of kernel_event_throughput
    # showed on a 2-vCPU host: median 0.968, from 0.73 to 1.29.
    spread = [0.73, 0.81, 0.88, 0.95, 0.96, 0.976, 1.02, 1.10, 1.18, 1.29]
    assert judge("kernel_event_throughput", _ratios(spread)) == []


def test_a_uniform_slowdown_of_1_5x_fails():
    job = _job([2.0, 2.1, 1.9, 2.2, 2.0], [3.0, 3.15, 2.85, 3.3, 3.0])
    problems = judge("kernel_event_throughput", job)
    assert problems == [
        "kernel_event_throughput: throughput 0.67x the parent's (median of 5 "
        "pairs), more than 30% below"
    ]


def test_one_slow_pair_in_ten_passes():
    assert judge("fleet_market", _ratios([1.0] * 9 + [0.3])) == []


def test_kernel_scenario_still_gates_on_events():
    # The kernel scenario's steps are pinned, so its wall ratio is its
    # ratio of events per second: 0.6x fails, 0.8x passes.
    assert judge("kernel_event_throughput", _ratios([0.6] * 5)) != []
    assert judge("kernel_event_throughput", _ratios([0.8] * 5)) == []


def test_requests_drop_fails_even_when_events_rise():
    # A change that re-pins 2.5x the steps for the same requests and runs
    # 1.5x longer raises events/s but serves 0.67x the requests/s: the
    # wall ratio is the requests/s ratio, so the pair gate fails it.
    pinned = {"switch_storm": dict(PINNED["switch_storm"], sim_steps=2500)}
    change = dict(SAME, wall_s=1.5, sim_steps=2500)
    assert check_counters({"switch_storm": [change]}, pinned) == []
    job = {"metric": "wall_s", "parent": [dict(SAME, wall_s=1.0)] * 5, "change": [change] * 5}
    assert judge("switch_storm", job) != []


def test_fewer_steps_for_the_same_requests_passes():
    # The same requests served faster in 27% fewer kernel steps: the gate
    # passes once the change has re-pinned the step count.
    pinned = {"switch_storm": dict(PINNED["switch_storm"], sim_steps=730)}
    change = dict(SAME, sim_steps=730)
    assert check_counters({"switch_storm": [change]}, PINNED) != []
    assert check_counters({"switch_storm": [change]}, pinned) == []
    job = {"metric": "wall_s", "parent": [dict(SAME, wall_s=1.0)] * 5, "change": [change] * 5}
    assert judge("switch_storm", job) == []


def test_a_moved_counter_fails_until_re_pinned():
    assert check_counters({"switch_storm": [SAME]}, PINNED) == []
    for counter, moved in (("sim_steps", 999), ("sim_end", 118.5), ("requests", 217)):
        problems = check_counters({"switch_storm": [dict(SAME, **{counter: moved})]}, PINNED)
        assert problems == [
            f"switch_storm: {counter} {moved} vs committed "
            f"{PINNED['switch_storm'][counter]} (re-pin it if the change is meant)"
        ]


def test_a_counter_the_baseline_lacks_fails():
    lacking = {"switch_storm": {"sim_steps": 1000, "sim_end": 118.0}}
    assert check_counters({"switch_storm": [SAME]}, lacking) != []


def test_a_missing_counters_entry_fails():
    # A new scenario is gated from its first run: it must pin counters.
    problems = check_counters({"new_scenario": [SAME]}, PINNED)
    assert problems == [f"new_scenario: no entry in {COUNTERS_FILE.name}; pin its counters"]


def test_every_scenario_has_a_committed_entry():
    committed = json.loads(COUNTERS_FILE.read_text())
    assert set(SCENARIOS) | set(FULL_SCENARIOS) == set(committed)


def test_rss_growth_beyond_5_percent_fails_a_pair():
    def job(change_rss):
        return {
            "metric": "wall_s",
            "parent": [{"wall_s": 600.0, "rss_peak_mb": 250.0}],
            "change": [{"wall_s": 600.0, "rss_peak_mb": change_rss}],
        }

    assert judge("fleet_replay_1m", job(262.0)) == []
    assert judge("fleet_replay_1m", job(263.0)) == [
        "fleet_replay_1m: rss_peak_mb 263.0 vs the parent's 250.0, more than 5% above"
    ]


@pytest.mark.parametrize("scenario", ["switch_storm"])
def test_committed_kernel_counters_match_a_fresh_run(scenario, monkeypatch):
    # The pinned counters are checked on every tier-1 run, not only in
    # the perf job.  They are recorded with the default bundle; the
    # invariant checker adds no steps, but it stays off so the scenario
    # runs as recorded.
    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    monkeypatch.delenv("REPRO_POLICIES", raising=False)
    committed = json.loads(COUNTERS_FILE.read_text())
    fresh = SCENARIOS[scenario]()
    assert {c: fresh[c] for c in COUNTERS} == {c: committed[scenario][c] for c in COUNTERS}


def test_summary_names_the_gated_metric():
    jobs = {
        "kernel_event_throughput": _job([2.0, 2.2, 2.4], [2.0, 2.0, 2.0]),
        "pool_sweep": _job([1.0, 1.0, 1.0], [1.25, 1.25, 1.25], metric="replay_s"),
    }
    table = render_summary(jobs, [])
    assert "| kernel_event_throughput | `wall_s` | 3 | 2.200 s | 2.000 s | 1.10x | ok |" in table
    assert "| pool_sweep | `replay_s` | 3 | 1.000 s | 1.250 s | 0.80x | ok |" in table
    failed = render_summary(jobs, ["pool_sweep: throughput 0.80x"])
    assert "| 0.80x | FAIL |" in failed and "- pool_sweep: throughput 0.80x" in failed
    single = render_summary({"switch_storm": _job([], [0.7])}, [])
    assert "| switch_storm | `wall_s` | 0 | — | 0.700 s | — | ok |" in single
