"""CLI for the tracked perf benchmarks.

Measure and write a fresh report::

    PYTHONPATH=src python -m benchmarks.perf.run --out BENCH_kernel.json

Gate against the committed baseline (used by the CI perf-smoke job)::

    PYTHONPATH=src python -m benchmarks.perf.run --check \
        --baseline BENCH_kernel.json --max-drop 0.30

``--check`` compares each scenario's gated throughput against the
baseline and exits non-zero when any scenario drops by more than
``--max-drop`` (a fraction, default 0.30), or when one of its
host-independent counters (``sim_steps``, ``sim_end``, ``requests``)
differs from the baseline's at all.  Scenarios that replay
requests are gated on ``requests_per_sec``, the work they do; only
``kernel_event_throughput`` is gated on kernel ``ops_per_sec``, so a
change that serves the same requests in fewer kernel steps never reads
as a regression.  ``--quick`` runs reduced problem sizes.  Requests
per second depends on problem size, so ``--check`` refuses a baseline
recorded at the other size.

``--full`` adds the suite's opt-in full-size scenarios (currently
``fleet_replay_1m``: 10^6 streamed requests with the process RSS
high-water recorded in the report) at one trial each.  ``--summary
FILE`` appends a markdown before/after throughput table to ``FILE`` —
CI passes ``"$GITHUB_STEP_SUMMARY"`` so every perf job renders its
comparison against the committed baseline in the job summary.

``--profile`` additionally runs each scenario once under ``cProfile``
and writes a ``<suite>_<scenario>.pstats`` artifact (to ``--profile-dir``,
default the current directory), so a kernel PR can ship evidence of
where the time went.  The profiled run is separate from the timed
trials — profiler overhead never pollutes the recorded throughput.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

# Standalone bootstrap: make `repro` importable when invoked as a plain
# script without PYTHONPATH=src.
_REPO_ROOT = Path(__file__).resolve().parents[2]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from benchmarks.perf.scenarios import (  # noqa: E402
    FULL_SCENARIOS,
    SCENARIOS,
    SUITES,
    gate_metric,
    run_scenario,
)

#: Default baseline file per suite ("all" gates against both files via
#: two explicit invocations instead).
_SUITE_BASELINES = {
    "kernel": "BENCH_kernel.json",
    "fleet": "BENCH_fleet.json",
}


def measure(
    quick: bool, repeat: int, suite: str = "kernel", full: bool = False
) -> dict:
    report: dict = {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "quick": quick,
            "repeat": repeat,
            "suite": suite,
        },
        "scenarios": {},
    }
    names = list(SUITES[suite])
    full_names = FULL_SCENARIOS.get(suite, ()) if full else ()
    names += [name for name in full_names if name not in names]
    for name in names:
        # Full-size opt-in scenarios run minutes per trial; one trial is
        # the measurement (their size already drowns scheduler noise).
        trials = 1 if name in full_names else repeat
        print(f"[perf] {name} ...", flush=True)
        result = run_scenario(name, quick=quick, repeat=trials)
        report["scenarios"][name] = result
        extra = (
            f", RSS peak {result['rss_peak_mb']:,.0f} MB"
            if "rss_peak_mb" in result
            else ""
        )
        served = (
            f"{result['requests_per_sec']:,.1f} requests/s, "
            if "requests_per_sec" in result
            else ""
        )
        print(
            f"[perf] {name}: {served}{result['ops_per_sec']:,.0f} events/s "
            f"({result['wall_s']:.3f}s wall, {result['sim_steps']} steps"
            f"{extra})",
            flush=True,
        )
    return report


def profile_suite(suite: str, quick: bool, out_dir: Path) -> list[Path]:
    """Run each suite scenario once under cProfile; write ``.pstats`` files.

    Returns the artifact paths.  Kept separate from :func:`measure` so
    profiler overhead never contaminates the timed trials.
    """
    import cProfile
    import pstats

    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for name in SUITES[suite]:
        print(f"[perf] profiling {name} ...", flush=True)
        profiler = cProfile.Profile()
        profiler.enable()
        SCENARIOS[name](quick=quick)
        profiler.disable()
        path = out_dir / f"{suite}_{name}.pstats"
        profiler.dump_stats(path)
        paths.append(path)
        stats = pstats.Stats(profiler)
        total = stats.total_tt  # type: ignore[attr-defined]
        rows = sorted(
            stats.stats.items(),  # type: ignore[attr-defined]
            key=lambda kv: kv[1][2],
            reverse=True,
        )[:5]
        print(f"[perf] wrote {path} ({total:.3f}s profiled); top self-time:")
        for (filename, lineno, func), (_, _, tottime, _, _) in rows:
            where = f"{Path(filename).name}:{lineno}" if lineno else filename
            print(f"[perf]   {tottime:8.3f}s  {func} ({where})")
    return paths


def render_summary(report: dict, baseline_path: Path) -> str:
    """A GitHub-flavored markdown before/after table for the job summary.

    One row per measured scenario: the gated metric, its committed
    baseline, this run's value, and the ratio — the same comparison
    :func:`check` gates on, rendered for humans.  Scenarios without a
    baseline entry (e.g. a newly added one) show a dash.
    """
    baseline: dict = {}
    if baseline_path.exists():
        with baseline_path.open() as fh:
            baseline = json.load(fh).get("scenarios", {})
    suite = report.get("meta", {}).get("suite", "?")
    quick = report.get("meta", {}).get("quick", False)
    has_rss = any(
        "rss_peak_mb" in result for result in report["scenarios"].values()
    )
    lines = [
        f"### Perf: `{suite}` suite{' (quick)' if quick else ''}",
        "",
        "| scenario | gated on | baseline | current | ratio | wall "
        + ("| RSS peak " if has_rss else "")
        + "|",
        "|---|---|---:|---:|---:|---:" + ("|---:" if has_rss else "") + "|",
    ]
    for name, result in report["scenarios"].items():
        metric = gate_metric(result)
        base = baseline.get(name)
        if base is not None and metric in base:
            base_value = f"{base[metric]:,.1f}"
            ratio = f"{result[metric] / base[metric]:.2f}x"
        else:
            base_value = ratio = "—"
        rss = (
            f" {result['rss_peak_mb']:,.0f} MB |"
            if has_rss and "rss_peak_mb" in result
            else (" — |" if has_rss else "")
        )
        lines.append(
            f"| {name} | `{metric}` | {base_value} | {result[metric]:,.1f} "
            f"| {ratio} | {result['wall_s']:.3f}s |{rss}"
        )
    return "\n".join(lines) + "\n"


#: Host-independent counters a scenario's report must repeat exactly.
COUNTERS = ("sim_steps", "sim_end", "requests")


def check(report: dict, baseline_path: Path, max_drop: float) -> int:
    """Gate each scenario's :func:`gate_metric` and counters against the
    baseline.

    Returns 1 when any scenario falls more than ``max_drop`` below its
    baseline value, when one of its :data:`COUNTERS` differs from the
    baseline's (a change that moves a counter re-pins it and says why),
    or when the baseline lacks the gated metric or a reported counter
    (an older report: re-record it); 2 when the baseline was recorded at
    the other problem size (``--quick`` or not); else 0.
    """
    with baseline_path.open() as fh:
        baseline = json.load(fh)
    base_scenarios = baseline.get("scenarios", {})
    base_quick = bool(baseline.get("meta", {}).get("quick", False))
    now_quick = bool(report.get("meta", {}).get("quick", False))
    if base_quick != now_quick:
        print(
            f"[perf] baseline quick={base_quick} vs current "
            f"quick={now_quick}: requests per second depends on problem "
            "size; gate against a baseline recorded at the same size"
        )
        return 2
    failures = []
    for name, result in report["scenarios"].items():
        base = base_scenarios.get(name)
        if base is None:
            print(f"[perf] {name}: no baseline entry, skipping")
            continue
        metric = gate_metric(result)
        if metric not in base:
            print(f"[perf] {name}: baseline has no {metric} FAIL")
            failures.append(name)
            continue
        floor = base[metric] * (1.0 - max_drop)
        ratio = result[metric] / base[metric]
        status = "ok" if result[metric] >= floor else "FAIL"
        print(
            f"[perf] {name}: {metric} {result[metric]:,.1f} vs baseline "
            f"{base[metric]:,.1f} ({ratio:.2f}x, floor {floor:,.1f}) {status}"
        )
        if result[metric] < floor:
            failures.append(name)
        for counter in COUNTERS:
            if counter in result and result[counter] != base.get(counter):
                print(
                    f"[perf] {name}: {counter} {result[counter]} vs baseline "
                    f"{base.get(counter)} FAIL (re-pin it if the change is meant)"
                )
                if name not in failures:
                    failures.append(name)
    if failures:
        print(
            f"[perf] FAIL: {', '.join(failures)} dropped more than "
            f"{max_drop:.0%} below the committed baseline, or moved a counter"
        )
        return 1
    print("[perf] all scenarios within budget")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (e.g. BENCH_kernel.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against --baseline and exit 1 on regression",
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="kernel",
        help="scenario group to run (default: kernel, the original three)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline report to compare against (default: the suite's "
        "committed BENCH_*.json)",
    )
    parser.add_argument(
        "--max-drop", type=float, default=0.30,
        help="max tolerated fractional drop in each scenario's gated "
        "throughput (default 0.30)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced problem sizes for CI smoke runs",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="also run the suite's opt-in full-size scenarios "
        "(e.g. fleet_replay_1m: 10^6 requests, minutes of wall time)",
    )
    parser.add_argument(
        "--summary", type=Path, default=None,
        help="append a markdown before/after throughput table here "
        "(pass \"$GITHUB_STEP_SUMMARY\" in CI)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="trials per scenario, best kept (default 3)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also run each scenario once under cProfile and write "
        "<suite>_<scenario>.pstats artifacts",
    )
    parser.add_argument(
        "--profile-dir", type=Path, default=Path("."),
        help="directory for --profile .pstats artifacts (default: cwd)",
    )
    args = parser.parse_args(argv)
    if args.baseline is None:
        args.baseline = _REPO_ROOT / _SUITE_BASELINES.get(
            args.suite, "BENCH_kernel.json"
        )

    report = measure(
        quick=args.quick, repeat=args.repeat, suite=args.suite, full=args.full
    )

    if args.profile:
        profile_suite(args.suite, quick=args.quick, out_dir=args.profile_dir)

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[perf] wrote {args.out}")

    if args.summary is not None:
        with args.summary.open("a") as fh:
            fh.write(render_summary(report, args.baseline))
        print(f"[perf] appended summary table to {args.summary}")

    if args.check:
        if not args.baseline.exists():
            print(f"[perf] baseline {args.baseline} not found")
            return 2
        return check(report, args.baseline, args.max_drop)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
