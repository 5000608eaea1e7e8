"""The perf gate (`benchmarks/perf/run.py`) gates each scenario on its work.

Scenarios that replay requests are gated on requests served per wall
second; only the raw kernel scenario is gated on events per second.
"""

import json

from benchmarks.perf.run import check, render_summary
from benchmarks.perf.scenarios import gate_metric


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
            "wall_s": 1.0,
            "sim_steps": 1500,
        }
    )
    assert check(current, baseline, max_drop=0.30) == 1


def test_fewer_steps_for_the_same_requests_passes(tmp_path):
    # The same requests served faster in 27% fewer kernel steps: events/s
    # falls, requests/s rises, and the gate passes.
    baseline = _write(tmp_path, BASELINE)
    current = _report(
        end_to_end_serving={
            "ops_per_sec": 650.0,
            "requests_per_sec": 110.0,
            "wall_s": 0.9,
            "sim_steps": 730,
        }
    )
    assert check(current, baseline, max_drop=0.30) == 0


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


def test_summary_names_the_gated_metric(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    table = render_summary(BASELINE, baseline)
    assert "| end_to_end_serving | `requests_per_sec` | 100.0 | 100.0 | 1.00x |" in table
    assert "| kernel_event_throughput | `ops_per_sec` | 1,000.0 | 1,000.0 | 1.00x |" in table


def test_baseline_of_the_other_size_is_refused(tmp_path):
    baseline = _write(tmp_path, BASELINE)
    quick = dict(BASELINE, meta={"quick": True, "suite": "kernel"})
    assert check(quick, baseline, max_drop=0.30) == 2
