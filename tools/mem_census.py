"""Memory census: a simbench replay's RSS, and what it still holds.

Replays simbench workloads (``simbench/workloads.py``) and reports, per
workload:

* ``ru_maxrss`` (the process's peak resident set) before the build,
  after the build and after the replay, the figure simbench reports as
  ``rss_peak_mb``, taken here in phases; and
* the top-N allocation sites, by ``file:line``, of the memory still
  allocated after the replay while the built workload is alive:
  what the run keeps, not what it churned through; and
* that retained memory per retained request (``Request`` objects still
  alive), per decode chunk landed (``DecodeRun.land``) in the replay and
  per model switch (the length of every live engine's ``scale_history``:
  an engine keeps its switches for its lifetime, as ``array`` columns,
  not objects).

A site is where a block was first allocated, not what holds it now.
CPython keeps freed dict key tables on a free list and hands them to
the next dict that needs one, so a table first allocated for, say, a
short-lived ``BumpAllocation``'s attributes (``memory/bump.py``) and
later reused by a long-lived record's own dict is credited to
``bump.py`` for as long as that record lives.  A
site that makes no sense for its size usually is such a reuse: confirm
by removing the suspected holder and seeing the site go.

Each workload runs in two fresh child processes, so one workload's peak
never reads as another's: a plain one for the RSS phases, and one under
``tracemalloc`` (started before the build) for the sites, whose own
bookkeeping would inflate the RSS.  The traced pass replays a few times
slower.  Stdlib only (``tracemalloc``, ``resource``); POSIX only; run by
hand::

    python tools/mem_census.py                           # all three, seed 1
    python tools/mem_census.py --workload pool_sweep --top 30
    python tools/mem_census.py --scale 0.2 --json mem.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc

from simbench_replay import ROOT, SRC, WORKLOADS, built  # sys.path[0] is tools/


def _maxrss_mb() -> float:
    """Peak RSS of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _site(frame) -> str:
    """``repro/memory/slab.py:123`` style allocation site."""
    path = frame.filename
    if path.startswith(SRC + os.sep):
        path = os.path.relpath(path, SRC)
    elif path.startswith(ROOT + os.sep):
        path = os.path.relpath(path, ROOT)
    else:
        path = os.path.basename(path)
    return f"{path}:{frame.lineno}"


def rss_pass(name: str, seed: int, scale: float) -> dict:
    """ru_maxrss around the build and the replay, untraced."""
    before = _maxrss_mb()
    with built(name, seed, scale) as replay:
        after_build = _maxrss_mb()
        replay.replay()
        after_replay = _maxrss_mb()
    return {
        "before_build": before,
        "after_build": after_build,
        "after_replay": after_replay,
    }


def _land_tap():
    """Count the decode chunks ``DecodeRun.land`` lands; returns the
    count cell and the undo."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.core.instance import DecodeRun

    land = DecodeRun.land
    landed = [0]

    def counted(run, first, stop):
        landed[0] += stop - first
        land(run, first, stop)

    DecodeRun.land = counted
    return landed, lambda: setattr(DecodeRun, "land", land)


def sites_pass(name: str, seed: int, scale: float, top: int) -> dict:
    """Allocations still live after the replay, grouped by site, and the
    retained requests, landed decode chunks and model switches they are
    shared over."""
    landed, undo = _land_tap()
    from repro.engine.engine import AegaeonEngine
    from repro.engine.request import Request

    tracemalloc.start()
    try:
        with built(name, seed, scale) as replay:
            replay.replay()
            snapshot = tracemalloc.take_snapshot()
            _, traced_peak = tracemalloc.get_traced_memory()
            objects = gc.get_objects()
            requests = sum(type(obj) is Request for obj in objects)
            switches = sum(
                len(obj.scale_history) for obj in objects if type(obj) is AegaeonEngine
            )
    finally:
        tracemalloc.stop()
        undo()
    snapshot = snapshot.filter_traces(
        (
            tracemalloc.Filter(False, tracemalloc.__file__),
            tracemalloc.Filter(False, "<frozen importlib._bootstrap*>"),
        )
    )
    stats = snapshot.statistics("lineno")
    return {
        "retained_mb": sum(stat.size for stat in stats) / 2**20,
        "traced_peak_mb": traced_peak / 2**20,
        "retained_requests": requests,
        "landed_chunks": landed[0],
        "model_switches": switches,
        "sites": [
            {"site": _site(stat.traceback[0]), "kb": stat.size / 1024,
             "count": stat.count}
            for stat in stats[:top]
        ],
    }


def census(name: str, seed: int, scale: float, top: int) -> dict:
    """Both passes of one workload, each in a fresh child process."""
    result = {"workload": name, "seed": seed, "scale": scale}
    for phase in ("rss", "sites"):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--scale", str(scale), "--top", str(top),
             "--phase", phase],
            check=True, capture_output=True, text=True,
        )
        result[phase] = json.loads(child.stdout)
    return result


def _shares(sites: dict) -> str:
    """Retained bytes per retained request, per landed decode chunk and
    per model switch."""
    retained = sites["retained_mb"] * 2**20
    parts = []
    for label, count in (("retained request", sites["retained_requests"]),
                         ("landed decode chunk", sites["landed_chunks"]),
                         ("model switch", sites["model_switches"])):
        per = f"{retained / count:,.0f} B" if count else "n/a"
        parts.append(f"{per} per {label} ({count:,})")
    return "retained: " + ", ".join(parts)


def table(result: dict) -> str:
    rss, sites = result["rss"], result["sites"]
    lines = [
        f"{result['workload']} seed {result['seed']} scale {result['scale']}: "
        f"ru_maxrss {rss['before_build']:.1f} MB before the build, "
        f"{rss['after_build']:.1f} MB after it, "
        f"{rss['after_replay']:.1f} MB after the replay",
        f"traced: {sites['retained_mb']:.1f} MB retained after the replay, "
        f"{sites['traced_peak_mb']:.1f} MB peak",
        _shares(sites),
        f"{'KiB':>10} {'blocks':>9}  site (retained)",
    ]
    for row in sites["sites"]:
        lines.append(f"{row['kb']:>10,.1f} {row['count']:>9,}  {row['site']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--json", default=None, help="also write the census here")
    # One child's pass; prints its JSON on stdout.
    parser.add_argument("--phase", choices=("rss", "sites"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase is not None:
        if args.phase == "rss":
            out = rss_pass(args.workload, args.seed, args.scale)
        else:
            out = sites_pass(args.workload, args.seed, args.scale, args.top)
        json.dump(out, sys.stdout)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = census(name, args.seed, args.scale, args.top)
        results.append(result)
        print(table(result))
        print()
    if args.json:
        with open(args.json, "w") as out:
            json.dump(results, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
