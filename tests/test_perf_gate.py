"""The perf gate (`benchmarks/perf/run.py`) gates each scenario on its work.

Scenarios that replay requests are gated on requests served per wall
second; only the raw kernel scenario is gated on events per second.
The host-independent counters (kernel steps, simulated end time,
requests) must repeat the baseline's exactly.
"""

import json
from pathlib import Path

import pytest

from benchmarks.perf.run import COUNTERS, check, render_summary
from benchmarks.perf.scenarios import gate_metric, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _report(**scenarios):
    return {"meta": {"quick": False, "suite": "kernel"}, "scenarios": scenarios}


def _write(tmp_path, report):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(report))
    return path


BASELINE = _report(
    kernel_event_throughput={"ops_per_sec": 1000.0, "wall_s": 1.0, "sim_steps": 1000},
    end_to_end_serving={
        "ops_per_sec": 1000.0,
        "requests_per_sec": 100.0,
        "wall_s": 1.0,
        "sim_steps": 1000,
    },
)


def test_request_replays_gate_on_requests_per_sec():
    assert gate_metric(BASELINE["scenarios"]["end_to_end_serving"]) == "requests_per_sec"
    assert gate_metric(BASELINE["scenarios"]["kernel_event_throughput"]) == "ops_per_sec"


def test_requests_drop_fails_even_when_events_rise(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    current = _report(
        end_to_end_serving={
            "ops_per_sec": 1500.0,
            "requests_per_sec": 60.0,
            "wall_s": 0.667,
            "sim_steps": 1000,
        }
    )
    assert check(current, baseline, max_drop=0.30) == 1


def test_fewer_steps_for_the_same_requests_passes(tmp_path):
    # The same requests served faster in 27% fewer kernel steps: events/s
    # falls, requests/s rises, and the gate passes once the change has
    # re-pinned the step count (the recorded throughput stays).
    repinned = _report(
        end_to_end_serving=dict(
            BASELINE["scenarios"]["end_to_end_serving"], sim_steps=730
        )
    )
    baseline = _write(tmp_path, repinned)
    current = _report(
        end_to_end_serving={
            "ops_per_sec": 650.0,
            "requests_per_sec": 110.0,
            "wall_s": 0.9,
            "sim_steps": 730,
        }
    )
    assert check(current, baseline, max_drop=0.30) == 0


def test_a_moved_counter_fails_until_re_pinned(tmp_path, capsys):
    baseline = _write(tmp_path, _report(
        end_to_end_serving={
            "ops_per_sec": 1000.0,
            "requests_per_sec": 100.0,
            "wall_s": 1.0,
            "sim_steps": 1000,
            "sim_end": 118.0,
            "requests": 218,
        }
    ))
    same = {
        "ops_per_sec": 1100.0,
        "requests_per_sec": 110.0,
        "wall_s": 0.9,
        "sim_steps": 1000,
        "sim_end": 118.0,
        "requests": 218,
    }
    assert check(_report(end_to_end_serving=same), baseline, max_drop=0.30) == 0
    for counter, moved in (("sim_steps", 999), ("sim_end", 118.5), ("requests", 217)):
        current = _report(end_to_end_serving=dict(same, **{counter: moved}))
        assert check(current, baseline, max_drop=0.30) == 1, counter
        assert f"end_to_end_serving: {counter} {moved} vs baseline" in capsys.readouterr().out


def test_a_counter_the_baseline_lacks_fails(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    current = _report(
        end_to_end_serving={
            "ops_per_sec": 1000.0,
            "requests_per_sec": 100.0,
            "wall_s": 1.0,
            "sim_steps": 1000,
            "requests": 100,
        }
    )
    assert check(current, baseline, max_drop=0.30) == 1


def test_kernel_scenario_still_gates_on_events(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    slow = _report(
        kernel_event_throughput={"ops_per_sec": 600.0, "wall_s": 1.7, "sim_steps": 1000}
    )
    fine = _report(
        kernel_event_throughput={"ops_per_sec": 800.0, "wall_s": 1.2, "sim_steps": 1000}
    )
    assert check(slow, baseline, max_drop=0.30) == 1
    assert check(fine, baseline, max_drop=0.30) == 0


def test_baseline_without_the_gated_metric_fails(tmp_path):
    baseline = _write(
        tmp_path,
        _report(end_to_end_serving={"ops_per_sec": 1000.0, "wall_s": 1.0}),
    )
    current = _report(
        end_to_end_serving={"ops_per_sec": 1000.0, "requests_per_sec": 100.0, "wall_s": 1.0}
    )
    assert check(current, baseline, max_drop=0.30) == 1


@pytest.mark.parametrize("scenario", ["end_to_end_serving", "switch_storm"])
def test_committed_kernel_counters_match_a_fresh_run(scenario, monkeypatch):
    # Sub-second scenarios: their pinned counters are checked on every
    # tier-1 run, not only in the perf job.  The baselines are recorded
    # with the default bundle; the invariant checker adds no steps, but
    # it stays off so the scenarios run as recorded.
    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    monkeypatch.delenv("REPRO_POLICIES", raising=False)
    committed = json.loads((ROOT / "BENCH_kernel.json").read_text())["scenarios"]
    fresh = run_scenario(scenario, quick=False, repeat=1)
    assert {c: fresh[c] for c in COUNTERS} == {c: committed[scenario][c] for c in COUNTERS}


def test_summary_names_the_gated_metric(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    table = render_summary(BASELINE, baseline)
    assert "| end_to_end_serving | `requests_per_sec` | 100.0 | 100.0 | 1.00x |" in table
    assert "| kernel_event_throughput | `ops_per_sec` | 1,000.0 | 1,000.0 | 1.00x |" in table


def test_baseline_of_the_other_size_is_refused(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    quick = dict(BASELINE, meta={"quick": True, "suite": "kernel"})
    assert check(quick, baseline, max_drop=0.30) == 2
