"""Wall census: where a simbench replay's host time goes, per function.

Replays simbench workloads (``simbench/workloads.py``) under a stdlib
``signal.setitimer(ITIMER_PROF)`` sampler.  Every ``--interval`` seconds
of process CPU time the ``SIGPROF`` handler walks the interrupted Python
stack and credits

* the innermost function with one *self* sample, and
* every distinct function on the stack with one *inclusive* sample.

Shares are of all samples taken during the replay call; building the
workload is not sampled.  simbench's spans time named methods, so a cheap
function called a few hundred thousand times (a no-op null metric
instrument, a property read) costs time no span shows; the sampler sees
it.  The kernel may round the interval up to its timer tick (4 ms at
HZ=250), so the table states the CPU time per sample it actually got;
a full-size workload yields a few hundred to a few thousand samples,
so shares under about 1% are noise.  POSIX only (``SIGPROF``); stdlib
only; run by hand::

    python tools/wall_census.py                          # all three, seed 1
    python tools/wall_census.py --workload fleet_market --reps 3 --top 30
    python tools/wall_census.py --scale 0.2 --json wall.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from collections import Counter

from simbench_replay import ROOT, SRC, WORKLOADS, built  # sys.path[0] is tools/


def _label(code) -> str:
    """``repro/memory/slab.py:SlabAllocator.grow`` style function name."""
    path = code.co_filename
    if path.startswith(SRC + os.sep):
        path = os.path.relpath(path, SRC)
    elif path.startswith(ROOT + os.sep):
        path = os.path.relpath(path, ROOT)
    else:
        path = os.path.basename(path)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def census(name: str, seed: int, scale: float, interval: float, reps: int = 1) -> dict:
    """Replay one workload ``reps`` times under the sampler; pool the samples."""
    self_counts: Counter = Counter()
    inclusive: Counter = Counter()
    # This module's frames sit under every sample; leave them out.
    mine = os.path.abspath(__file__)

    def sample(signum, frame) -> None:
        if frame is None:
            return
        self_counts[frame.f_code] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                inclusive[code] += 1
            frame = frame.f_back

    wall = cpu = 0.0
    for _ in range(reps):
        with built(name, seed, scale) as replay:
            previous = signal.signal(signal.SIGPROF, sample)
            start, cpu_start = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_PROF, interval, interval)
            try:
                replay.replay()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                wall += time.perf_counter() - start
                cpu += time.process_time() - cpu_start
                signal.signal(signal.SIGPROF, previous)
    samples = sum(self_counts.values())

    def shares(counts: Counter) -> dict:
        merged: Counter = Counter()
        for code, count in counts.items():
            if os.path.abspath(code.co_filename) != mine:
                merged[_label(code)] += count
        return {label: count / samples for label, count in merged.most_common()}

    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "reps": reps,
        "interval_s": interval,
        "replay_wall_s": wall,
        "replay_cpu_s": cpu,
        "samples": samples,
        "self": shares(self_counts),
        "inclusive": shares(inclusive),
    }


def table(result: dict, top: int) -> str:
    self_share, inclusive = result["self"], result["inclusive"]
    lines = [
        f"{result['workload']} seed {result['seed']} scale {result['scale']}, "
        f"{result['reps']} replay(s): {result['samples']:,} samples (one per "
        f"{result['replay_cpu_s'] / max(1, result['samples']) * 1e3:.1f} ms of CPU), "
        f"{result['replay_wall_s']:.2f} s wall",
    ]
    for title, order in (("by self", self_share), ("by inclusive", inclusive)):
        lines.append(f"{'self':>6} {'incl':>6}  function ({title})")
        for label in list(order)[:top]:
            lines.append(
                f"{self_share.get(label, 0.0):>6.1%} "
                f"{inclusive.get(label, 0.0):>6.1%}  {label}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--interval", type=float, default=0.001,
                        help="seconds of CPU time between samples")
    parser.add_argument("--reps", type=int, default=1,
                        help="replays per workload, samples pooled")
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--json", default=None, help="also write the shares here")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = census(name, args.seed, args.scale, args.interval, args.reps)
        results.append(result)
        print(table(result, args.top))
        print()
    if args.json:
        with open(args.json, "w") as out:
            json.dump(results, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
