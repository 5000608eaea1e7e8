"""Step census: which waiters the kernel's steps go to.

Replays simbench workloads (``simbench/workloads.py``) with the kernel's
``heappop`` wrapped, and classifies every popped event by what it wakes:

* a process in the event's single-waiter slot, named by its class and
  the yield site it resumes: the function and line of the innermost
  suspended frame of its ``yield from`` chain
  (``Process>DecodeInstance._loop:<line>`` for a decode chunk's
  timeout, ``Process>_load:<line>`` for a lane's load run,
  ``Pump>_pump:<line>``), so the waits of one flat lifecycle (a chunk
  timeout and a rule-1 stall, a lane's copy end and its dispatch) are
  rows of their own; a process not yet started is named at its
  ``def`` line;
* otherwise the first callback (``cb:MoveList._fire``), with a process
  resumed from a callbacks list named as above;
* ``(nobody)`` for an event that fires with neither.

Rows are ``event type -> waiter``.  Lazily cancelled timeouts are popped
but are not steps; they are counted apart.  Process steps the kernel ran
inline (``Environment.claim_inline``) are never popped and are reported
as ``steps_inlined``.  The wrapped pop slows a replay by about half; a
full-size workload takes 5-10 s on a 2-vCPU x86-64 host.  Stdlib only;
run by hand::

    python tools/step_census.py                          # all three, seed 1
    python tools/step_census.py --workload pool_sweep --top 30
    python tools/step_census.py --scale 0.05 --json census.json
    python tools/step_census.py --loads --baseline parent.json

``--loads`` also wraps the weight-load classes (``CudaStream.load``,
``QuickLoader._chunks``, ``LoadRun``, and the ``Link`` calls that split
a run) and prints, per workload: prefetch and synchronous loads with
their chunks, runs formed, splits by cause, and the stall and copy ops
retired inside runs (including those a run still live at collection
lands when it is settled).  Those rows give the steps the runs saved:

    (steps + steps_inlined) before runs - (steps + steps_inlined) now
        = (L_sync - F_sync) + 2 * (L_lane - F_lane)

where L counts ops retired inside runs and F the runs whose own
timeout fired (ran to their end, or were split exactly there), per
owner: a synchronous loader, or a stream lane running a prefetch,
which also saves the dispatch of every op after a run's first.
``--baseline`` reads a ``--json`` file written before runs existed and
checks the identity against it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from simbench_replay import SRC, WORKLOADS, built  # sys.path[0] is tools/


def _generator_name(gen) -> str:
    """``function:line`` of the innermost suspended frame of a
    ``yield from`` chain: the yield site the event resumes."""
    while getattr(gen, "gi_yieldfrom", None) is not None and hasattr(
        gen.gi_yieldfrom, "gi_code"
    ):
        gen = gen.gi_yieldfrom
    code = getattr(gen, "gi_code", None)
    if code is None:
        return type(gen).__name__
    name = getattr(code, "co_qualname", code.co_name)
    frame = gen.gi_frame
    return name if frame is None else f"{name}:{frame.f_lineno}"


def _process_name(process) -> str:
    return f"{type(process).__name__}>{_generator_name(process._generator)}"


def classify(event, core) -> str:
    waiter = event._waiter
    kind = type(event).__name__
    if isinstance(waiter, core.Process):
        return f"{kind} -> {_process_name(waiter)}"
    callbacks = event.callbacks
    if callbacks:
        callback = callbacks[0]
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, core.Process) and callback.__func__ is core.Process._resume:
            return f"{kind} -> cb:{_process_name(owner)}"
        return f"{kind} -> cb:{getattr(callback, '__qualname__', repr(callback))}"
    return f"{kind} -> (nobody)"


def _wrap(cls, name: str, before) -> callable:
    """Call ``before(*args)`` ahead of each ``cls.name`` call; returns the undo."""
    original = cls.__dict__[name]

    def wrapped(*args, **kwargs):
        before(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(cls, name, wrapped)
    return lambda: setattr(cls, name, original)


def load_taps(loads: Counter) -> list:
    """Wrap the weight-load classes to fill ``loads``; returns the undos."""
    from repro.hardware.interconnect import Link
    from repro.transfer.loader import LoadRun, QuickLoader
    from repro.transfer.streams import CudaStream

    cause = ["interrupt"]  # what is splitting runs right now

    def prefetch(stream, link, nbytes, chunks, stall, on_done=None):
        loads["prefetch loads"] += 1
        loads["prefetch chunks"] += chunks

    def synchronous(loader, nbytes):
        loads["synchronous loads"] += 1
        loads["synchronous chunks"] += -(-nbytes // loader.chunk_bytes)

    def formed(run, link, chunks, first, owner=None):
        loads[f"runs formed ({_owner(owner)})"] += 1

    def landing(run) -> tuple:
        """What a split or settle at ``now`` lands: (whole chunks, ops,
        whether a copy is in flight).  A stall start of None is a stall
        an earlier settle already landed."""
        now = run.link.env.now
        landed = ops = 0
        for _, stall_start, stall_end, copy_end, _, _ in run._replay():
            if copy_end > now:
                in_copy = now >= stall_end
                return landed, ops + (in_copy and stall_start is not None), in_copy
            landed += 1
            ops += 1 + (stall_start is not None)
        return landed, ops, None

    def split(run):
        owner = _owner(run.owner)
        landed, ops, in_copy = landing(run)
        if in_copy is None:
            loads[f"runs fired ({owner})"] += 1
            loads[f"splits at a run's end ({cause[0]})"] += 1
        loads[f"splits by {cause[0]}"] += landed < run.chunks[0] - run.first
        loads[f"ops retired in runs ({owner})"] += ops

    def settled(run):
        # A run still live when a serve collects: what it landed by then
        # cost the per-chunk chain its steps too.
        loads[f"ops retired in runs ({_owner(run.owner)})"] += landing(run)[1]

    def finished(run):
        if run.link._run is run:
            owner = _owner(run.owner)
            loads[f"runs fired ({owner})"] += 1
            loads[f"ops retired in runs ({owner})"] += (
                2 * (run.chunks[0] - run.first) - run.stalled
            )

    def caused(label):
        def tap(link, *args):
            cause[0] = label
        return tap

    undos = [
        _wrap(CudaStream, "load", prefetch),
        _wrap(QuickLoader, "_chunks", synchronous),
        _wrap(LoadRun, "__init__", formed),
        _wrap(LoadRun, "split", split),
        _wrap(LoadRun, "finish", finished),
        _wrap(LoadRun, "settle", settled),
    ]
    for name, label in (("acquire", "claim"), ("throttle", "throttle/restore"),
                        ("restore", "throttle/restore")):
        original = Link.__dict__[name]

        def scoped(link, *args, _original=original, _label=label):
            cause[0] = _label
            try:
                return _original(link, *args)
            finally:
                cause[0] = "interrupt"

        setattr(Link, name, scoped)
        undos.append(lambda name=name, original=original: setattr(Link, name, original))
    return undos


def _owner(owner) -> str:
    return "sync" if owner is None else "lane"


def saved_steps(loads: Counter) -> int:
    """The identity's right-hand side (see the module docstring)."""
    return (
        loads["ops retired in runs (sync)"] - loads["runs fired (sync)"]
        + 2 * (loads["ops retired in runs (lane)"] - loads["runs fired (lane)"])
    )


def census(name: str, seed: int, scale: float, loads: bool = False) -> dict:
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

    load_rows: Counter = Counter()
    undos = load_taps(load_rows) if loads else []
    core.Environment.__init__ = tracked_init
    core.heappop = counting_pop
    try:
        with built(name, seed, scale) as replay:
            replay.replay()
    finally:
        core.heappop = pop
        core.Environment.__init__ = init
        for undo in undos:
            undo()
    steps = sum(env.steps_executed for env in envs)
    counted = sum(rows.values())
    if counted != steps:
        raise AssertionError(f"classified {counted} pops, kernel counted {steps} steps")
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "steps": steps,
        "steps_inlined": sum(env.steps_inlined for env in envs),
        "cancelled": cancelled[0],
        "rows": dict(rows.most_common()),
    }
    if loads:
        result["loads"] = dict(sorted(load_rows.items()))
        result["saved_steps"] = saved_steps(load_rows)
    return result


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
    if "loads" in result:
        lines.append("weight loads:")
        for label, count in result["loads"].items():
            lines.append(f"{count:>9,}  {label}")
        lines.append(
            f"{result['saved_steps']:>9,}  steps + inlined saved by runs "
            "(L_sync - F_sync + 2 * (L_lane - F_lane))"
        )
    return "\n".join(lines)


def check_identity(result: dict, baseline: list) -> str:
    """Compare the saved steps with a pre-run census of the same replay."""
    for before in baseline:
        if (before["workload"], before["seed"], before["scale"]) == (
            result["workload"], result["seed"], result["scale"]
        ):
            moved = (before["steps"] + before["steps_inlined"]) - (
                result["steps"] + result["steps_inlined"]
            )
            verdict = "holds" if moved == result["saved_steps"] else "FAILS"
            return (
                f"identity {verdict}: baseline steps + inlined "
                f"{before['steps'] + before['steps_inlined']:,} - now "
                f"{result['steps'] + result['steps_inlined']:,} = {moved:,}; "
                f"runs account for {result['saved_steps']:,}"
            )
    return "identity: no baseline row for this workload, seed and scale"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--json", default=None, help="also write the rows here")
    parser.add_argument(
        "--loads", action="store_true", help="also count weight loads, runs and splits"
    )
    parser.add_argument(
        "--baseline", default=None,
        help="with --loads: a --json census from before load runs, to check "
        "the step identity against",
    )
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    results = []
    failed = False
    for name in names:
        result = census(name, args.seed, args.scale, loads=args.loads)
        results.append(result)
        print(table(result, args.top))
        if args.loads and baseline is not None:
            line = check_identity(result, baseline)
            failed |= "FAILS" in line
            print(line)
        print()
    if args.json:
        with open(args.json, "w") as out:
            json.dump(results, out, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
