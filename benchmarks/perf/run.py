"""One perf harness: time a change against its parent, in pairs, on one host.

Run each scenario once and check its counters::

    python -m benchmarks.perf.run

Gate a change against a checkout of its parent (CI's perf-smoke job)::

    python -m benchmarks.perf.run --parent ../parent --out perf-pairs.json

Without ``--parent`` each scenario in ``scenarios.py`` runs once in this
process.  Its wall time is printed, never gated: a wall time recorded
once says nothing about a run on another host or at another time.

``--parent ROOT`` times this tree against ``ROOT`` in pairs.  Each pair
runs both sides in fresh subprocesses, one after the other, and the side
that goes first alternates from pair to pair.  A perf scenario runs from
this tree's benchmark code with ``ROOT/src`` or ``./src`` first on the
path and reports ``wall_s``.  A simbench workload runs
``ROOT/simbench/run.py`` or ``./simbench/run.py`` at reduced scale and
reports ``replay_s``, so both trees must hold the same ``simbench/`` and
``BENCHMARK.json`` (CI copies this tree's into the parent's worktree).
A job fails when the median over its pairs of parent time / change time
— the change's throughput relative to the parent's — is below
``1 - MAX_DROP``.  A per-pair ratio, not a ratio of two medians, because
the host's speed drifts between pairs more than between the two halves
of one pair.

Both modes also fail when a scenario's host-independent counters
(:data:`COUNTERS`) differ from the committed ``BENCH_counters.json``, or
when it has no entry there.  A change that moves a counter re-pins it
and says why.

``--full`` adds ``fleet_replay_1m`` (10^6 requests, about ten minutes
per run on a 2-vCPU host).  Under ``--parent`` it runs one pair, about
twenty minutes, so it is opt-in and not part of CI; that pair also fails
when the change's ``rss_peak_mb`` exceeds the parent's by more than
``MAX_RSS_GROWTH``.

``--out FILE`` writes the JSON report.  ``--summary FILE`` appends a
markdown table to ``FILE``; CI passes ``"$GITHUB_STEP_SUMMARY"``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Callable

# Standalone bootstrap: make `repro` importable when invoked as a plain
# script without PYTHONPATH=src.
_REPO_ROOT = Path(__file__).resolve().parents[2]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from benchmarks.perf.scenarios import FULL_SCENARIOS, SCENARIOS  # noqa: E402

COUNTERS_FILE = _REPO_ROOT / "BENCH_counters.json"
#: Host-independent counters a scenario must repeat exactly.
COUNTERS = ("sim_steps", "sim_end", "requests")
#: A job fails when its median pair shows throughput this far below the parent's.
MAX_DROP = 0.30
#: ``rss_peak_mb`` growth over the parent's that fails a pair: simbench's bound.
MAX_RSS_GROWTH = 0.05
#: Pairs per job, except the ``--full`` scenarios, which run one.
PAIRS = 5
#: simbench at a fifth of its horizons: about 6 s per run.
SIMBENCH_ARGS = ("--seed", "1", "--scale", "0.2", "--seconds", "4", "--trace", "0")

_CHILD = (
    "import json, sys\n"
    "from benchmarks.perf.scenarios import FULL_SCENARIOS, SCENARIOS\n"
    "print(json.dumps({**SCENARIOS, **FULL_SCENARIOS}[sys.argv[1]]()))\n"
)


def _last_json(command: list[str], cwd: Path, env: dict) -> dict:
    """Run ``command``; the last line it prints is a JSON object."""
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{' '.join(command)} exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-2000:]}"
        ) from None


def scenario_run(name: str, root: Path) -> dict:
    """One run of perf scenario ``name`` on ``root/src``, in a fresh process."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(root / "src"), str(_REPO_ROOT)))
    return _last_json([sys.executable, "-c", _CHILD, name], _REPO_ROOT, env)


def simbench_run(workload: str, root: Path) -> dict:
    """One reduced-scale simbench run of ``workload`` in the tree ``root``."""
    command = [
        sys.executable, str(root / "simbench" / "run.py"),
        "--workload", workload, *SIMBENCH_ARGS,
    ]
    result = _last_json(command, root, dict(os.environ))
    if not result["correct"]:
        raise RuntimeError(f"simbench {workload} failed its checks in {root}")
    return {"replay_s": result["metrics"]["replay_s"]["value"]}


def run_pairs(
    name: str, metric: str, sample: Callable[[Path], dict], parent: Path, pairs: int
) -> dict:
    """``pairs`` runs of each side, alternating which side goes first."""
    job: dict = {"metric": metric, "parent": [], "change": []}
    sides = (("parent", parent), ("change", _REPO_ROOT))
    for index in range(pairs):
        for side, root in sides if index % 2 == 0 else sides[::-1]:
            job[side].append(sample(root))
        print(
            f"[perf] {name} pair {index + 1}/{pairs}: parent "
            f"{job['parent'][-1][metric]:.3f} s, change {job['change'][-1][metric]:.3f} s",
            flush=True,
        )
    return job


def throughput_ratio(job: dict) -> float | None:
    """Median over pairs of parent time / change time; None without pairs."""
    metric = job["metric"]
    ratios = [p[metric] / c[metric] for p, c in zip(job["parent"], job["change"])]
    return statistics.median(ratios) if ratios else None


def judge(name: str, job: dict) -> list[str]:
    """The pair gate's findings for one job (none without a parent)."""
    problems = []
    ratio = throughput_ratio(job)
    if ratio is not None and ratio < 1.0 - MAX_DROP:
        problems.append(
            f"{name}: throughput {ratio:.2f}x the parent's (median of "
            f"{len(job['parent'])} pairs), more than {MAX_DROP:.0%} below"
        )
    for parent, change in zip(job["parent"], job["change"]):
        if "rss_peak_mb" in change and (
            change["rss_peak_mb"] > parent["rss_peak_mb"] * (1.0 + MAX_RSS_GROWTH)
        ):
            problems.append(
                f"{name}: rss_peak_mb {change['rss_peak_mb']} vs the parent's "
                f"{parent['rss_peak_mb']}, more than {MAX_RSS_GROWTH:.0%} above"
            )
    return problems


def check_counters(runs: dict[str, list[dict]], committed: dict) -> list[str]:
    """Each scenario's :data:`COUNTERS` in every run against ``committed``."""
    problems = []
    for name, results in runs.items():
        pinned = committed.get(name)
        if pinned is None:
            problems.append(
                f"{name}: no entry in {COUNTERS_FILE.name}; pin its counters"
            )
            continue
        for result in results:
            for counter in COUNTERS:
                if counter in result and result[counter] != pinned.get(counter):
                    problems.append(
                        f"{name}: {counter} {result[counter]} vs committed "
                        f"{pinned.get(counter)} (re-pin it if the change is meant)"
                    )
    return list(dict.fromkeys(problems))


def _median(runs: list[dict], metric: str) -> str:
    return f"{statistics.median(run[metric] for run in runs):.3f} s" if runs else "—"


def render_summary(jobs: dict, problems: list[str]) -> str:
    """A GitHub-flavored markdown table: one row per job, then the failures."""
    lines = [
        "### Perf: change vs parent, same host",
        "",
        "| job | metric | pairs | parent median | change median "
        "| throughput ratio | status |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for name, job in jobs.items():
        ratio = throughput_ratio(job)
        failed = any(problem.startswith(f"{name}:") for problem in problems)
        lines.append(
            f"| {name} | `{job['metric']}` | {len(job['parent'])} "
            f"| {_median(job['parent'], job['metric'])} "
            f"| {_median(job['change'], job['metric'])} "
            f"| {'—' if ratio is None else f'{ratio:.2f}x'} "
            f"| {'FAIL' if failed else 'ok'} |"
        )
    lines += ["", *(f"- {problem}" for problem in problems)]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", type=Path, default=None,
        help="checkout of the parent commit to time this tree against, in pairs",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="also run fleet_replay_1m (10^6 requests, ~10 min per run)",
    )
    parser.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    parser.add_argument(
        "--summary", type=Path, default=None,
        help="append a markdown table here (pass \"$GITHUB_STEP_SUMMARY\" in CI)",
    )
    args = parser.parse_args(argv)
    if args.parent is not None and not (args.parent / "src" / "repro").is_dir():
        parser.error(f"--parent {args.parent} has no src/repro")

    scenarios = {**SCENARIOS, **(FULL_SCENARIOS if args.full else {})}
    jobs: dict[str, dict] = {}
    if args.parent is None:
        for name, scenario in scenarios.items():
            result = scenario()
            print(f"[perf] {name}: {result['wall_s']:.3f} s wall", flush=True)
            jobs[name] = {"metric": "wall_s", "parent": [], "change": [result]}
    else:
        for name in scenarios:
            pairs = 1 if name in FULL_SCENARIOS else PAIRS
            jobs[name] = run_pairs(
                name, "wall_s", partial(scenario_run, name), args.parent, pairs
            )
        benchmark = json.loads((_REPO_ROOT / "BENCHMARK.json").read_text())
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            jobs[workload] = run_pairs(
                workload, "replay_s", partial(simbench_run, workload), args.parent, PAIRS
            )

    committed = json.loads(COUNTERS_FILE.read_text())
    problems = check_counters(
        {name: jobs[name]["change"] for name in scenarios}, committed
    )
    for name, job in jobs.items():
        problems += judge(name, job)
    summary = render_summary(jobs, problems)
    print(summary, end="")

    if args.out is not None:
        report = {
            "meta": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
                "parent": None if args.parent is None else str(args.parent.resolve()),
            },
            "jobs": jobs,
            "problems": problems,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[perf] wrote {args.out}")
    if args.summary is not None:
        with args.summary.open("a") as fh:
            fh.write(summary)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
