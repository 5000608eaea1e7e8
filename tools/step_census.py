"""Step census: which waiters the kernel's steps go to.

Replays simbench workloads (``simbench/workloads.py``) with the kernel's
``heappop`` wrapped, and classifies every popped event by what it wakes:

* a process in the event's single-waiter slot, named by the state
  function it resumes (``_DecodeTask._chunk_done_fast``), or for a
  generator process by its innermost ``yield from`` frame
  (``Process>QuickLoader.load``); a ``ContTask`` bridging a generator is
  named the same way (``_PrefillTask>QuickLoader.load``);
* otherwise the first callback (``cb:MoveList._fire``), with a process
  resumed from a callbacks list named as above;
* ``(nobody)`` for an event that fires with neither.

Rows are ``event type -> waiter``.  Lazily cancelled timeouts are popped
but are not steps; they are counted apart.  Continuations the kernel ran
inline (``Environment.claim_inline``) are never popped and are reported
as ``steps_inlined``.  The wrapped pop slows a replay by about half; a
full-size workload takes 5-10 s on a 2-vCPU x86-64 host.  Stdlib only;
run by hand::

    python tools/step_census.py                          # all three, seed 1
    python tools/step_census.py --workload pool_sweep --top 30
    python tools/step_census.py --scale 0.05 --json census.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from simbench_replay import SRC, WORKLOADS, built  # sys.path[0] is tools/


def _generator_name(gen) -> str:
    """The innermost frame of a ``yield from`` chain."""
    while getattr(gen, "gi_yieldfrom", None) is not None and hasattr(
        gen.gi_yieldfrom, "gi_code"
    ):
        gen = gen.gi_yieldfrom
    code = getattr(gen, "gi_code", None)
    if code is None:
        return type(gen).__name__
    return getattr(code, "co_qualname", code.co_name)


def _process_name(process, core) -> str:
    send = process._send
    func = getattr(send, "__func__", None)
    if func is None:  # generator.send: a generator process
        return f"Process>{_generator_name(send.__self__)}"
    if func is core.ContTask._gen_step and process._gen is not None:
        return f"{type(process).__name__}>{_generator_name(process._gen)}"
    return func.__qualname__


def classify(event, core) -> str:
    waiter = event._waiter
    kind = type(event).__name__
    if isinstance(waiter, core.Process):
        return f"{kind} -> {_process_name(waiter, core)}"
    callbacks = event.callbacks
    if callbacks:
        callback = callbacks[0]
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, core.Process) and callback.__func__ is core.Process._resume:
            return f"{kind} -> cb:{_process_name(owner, core)}"
        return f"{kind} -> cb:{getattr(callback, '__qualname__', repr(callback))}"
    return f"{kind} -> (nobody)"


def census(name: str, seed: int, scale: float) -> dict:
    """Replay one workload and count its popped events by waiter."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.sim.core as core

    envs: list = []
    init = core.Environment.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        envs.append(self)

    rows: Counter = Counter()
    cancelled = [0]
    pop = core.heappop

    def counting_pop(queue):
        entry = pop(queue)
        event = entry[2]
        if event._cancelled:
            cancelled[0] += 1
        else:
            rows[classify(event, core)] += 1
        return entry

    core.Environment.__init__ = tracked_init
    core.heappop = counting_pop
    try:
        with built(name, seed, scale) as replay:
            replay.replay()
    finally:
        core.heappop = pop
        core.Environment.__init__ = init
    steps = sum(env.steps_executed for env in envs)
    counted = sum(rows.values())
    if counted != steps:
        raise AssertionError(f"classified {counted} pops, kernel counted {steps} steps")
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "steps": steps,
        "steps_inlined": sum(env.steps_inlined for env in envs),
        "cancelled": cancelled[0],
        "rows": dict(rows.most_common()),
    }


def table(result: dict, top: int) -> str:
    steps = result["steps"]
    lines = [
        f"{result['workload']} seed {result['seed']} scale {result['scale']}: "
        f"{steps:,} steps, {result['steps_inlined']:,} inlined, "
        f"{result['cancelled']:,} cancelled",
        f"{'steps':>9} {'share':>6}  event -> waiter",
    ]
    rows = list(result["rows"].items())
    for label, count in rows[:top]:
        lines.append(f"{count:>9,} {count / steps:>6.1%}  {label}")
    rest = sum(count for _, count in rows[top:])
    if rest:
        lines.append(f"{rest:>9,} {rest / steps:>6.1%}  ({len(rows) - top} more rows)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--json", default=None, help="also write the rows here")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = census(name, args.seed, args.scale)
        results.append(result)
        print(table(result, args.top))
        print()
    if args.json:
        with open(args.json, "w") as out:
            json.dump(results, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
