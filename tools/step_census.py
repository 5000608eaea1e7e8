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
    python tools/step_census.py --decode --baseline parent.json

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

``--decode`` also counts, per workload, the decode chunks committed,
the runs they went in, the run-length histogram (chunks per run) and
what ended each run: a member finishing, the quota, a join, a KV
arrival, a perf-factor change, the growth limit, an alloc on the GPU
cache, a failure, or the replay's end (collect).  On a tree with
``core.instance.DecodeRun`` these are the runs formed; on one without,
the chunks the per-chunk loop commits are grouped into the runs it
could have formed: a run goes on while the next chunk of the same turn
starts where the last one ended, with the same ready set and no join to
its batch in between (perf-factor changes are not seen).  The steps saved satisfy, against a ``--json`` census of a
tree without decode runs (``--baseline``):

    (steps + steps_inlined) before - (steps + steps_inlined) now
        = chunks landed in runs - runs fired

where a run fires when its own or its handed timeout does; a run
halted by a failure, or still live when the replay ends, never does.
With ``--loads`` as well, the load runs' share is added to the right.
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
    """Call ``before(*args)`` ahead of each ``cls.name`` call (own or
    inherited); returns the undo."""
    own = name in cls.__dict__
    original = getattr(cls, name)

    def wrapped(*args, **kwargs):
        before(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(cls, name, wrapped)
    if own:
        return lambda: setattr(cls, name, original)
    return lambda: delattr(cls, name)


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
        whether a copy is in flight).  Ops ``2 * i`` and ``2 * i + 1`` of
        ``run.ends`` are chunk ``run.base + i``'s stall and copy; an odd
        ``run.landed`` means an earlier settle landed the first unlanded
        chunk's stall."""
        now = run.env.now
        ends = run.ends
        stalled = run.landed & 1
        landed = ops = 0
        for op in range(run.landed & ~1, len(ends), 2):
            if ends[op + 1] > now:
                in_copy = now >= ends[op]
                return landed, ops + (in_copy and not stalled), in_copy
            landed += 1
            ops += 2 - stalled
            stalled = 0
        return landed, ops, None

    def split(run):
        owner = _owner(run.owner)
        landed, ops, in_copy = landing(run)
        if in_copy is None:
            loads[f"runs fired ({owner})"] += 1
            loads[f"splits at a run's end ({cause[0]})"] += 1
        loads[f"splits by {cause[0]}"] += (
            landed < run.chunks[0] - run.base - (run.landed >> 1)
        )
        loads[f"ops retired in runs ({owner})"] += ops

    def settled(run):
        # A run still live when an invariant sweep or the collection at
        # the end settles it (``Environment.settle_runs``): what it lands
        # then cost the per-chunk chain its steps too.
        loads[f"ops retired in runs ({_owner(run.owner)})"] += landing(run)[1]

    def finished(run):
        if run in run.env.runs:  # not split at its end already
            owner = _owner(run.owner)
            loads[f"runs fired ({owner})"] += 1
            loads[f"ops retired in runs ({owner})"] += len(run.ends) - run.landed

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


def decode_taps(decode: Counter, lengths: Counter) -> list:
    """Fill ``decode`` with chunk and run counts and the causes that
    ended runs, and ``lengths`` with chunks per run; returns the undos
    and a hook that closes the runs still open when the replay ends."""
    from repro.core import instance

    if hasattr(instance, "DecodeRun"):
        return _run_taps(instance, decode, lengths)
    return _chunk_taps(instance, decode, lengths)


def _close(decode: Counter, lengths: Counter, chunks: int, cause: str) -> None:
    decode["runs"] += 1
    decode[f"ended by {cause}"] += 1
    lengths[chunks] += 1


def _run_taps(instance, decode: Counter, lengths: Counter) -> tuple:
    """The runs ``DecodeRun`` forms, and what ended each."""
    from repro.engine.engine import AegaeonEngine
    from repro.memory.slab import SlabAllocator
    from repro.transfer.streams import CudaEvent

    DecodeRun = instance.DecodeRun
    cause = ["other"]  # what is splitting runs right now
    live: dict = {}  # run -> [chunks landed, quota, turn start, what cut it]
    originals = {
        name: getattr(DecodeRun, name)
        for name in ("__init__", "land", "hand", "finish", "halt")
    }

    def init(run, owner, batch, ready, context, remaining, quota, turn_start, pending):
        originals["__init__"](run, owner, batch, ready, context, remaining, quota,
                              turn_start, pending)
        live[run] = [0, quota, turn_start, None]

    def land(run, first, stop):
        live[run][0] += stop - first
        decode["chunks"] += stop - first
        originals["land"](run, first, stop)

    def hand(run, index):
        event = originals["hand"](run, index)
        if event is not None:
            live[run][3] = cause[0]
        return event

    def finish(run):
        originals["finish"](run)
        chunks, quota, turn_start, cut = live.pop(run)
        if cut == "failure":  # halted: its timeout never fires
            _close(decode, lengths, chunks, cut)
            return
        if cut is None:
            if any(r.generated_tokens >= r.output_tokens for r in run.ready):
                cut = "member finish"
            elif not run.ends[-1] - turn_start < quota:
                cut = "quota"
            else:
                cut = "growth limit"
        _close(decode, lengths, chunks, cut)
        decode["runs fired"] += 1

    def halt(run):
        live[run][3] = "failure"
        originals["halt"](run)

    for name, wrapped in (("__init__", init), ("land", land), ("hand", hand),
                          ("finish", finish), ("halt", halt)):
        setattr(DecodeRun, name, wrapped)
    undos = [lambda: [setattr(DecodeRun, n, f) for n, f in originals.items()]]
    for cls, name, label in ((instance.DecodeInstance, "kick", "join"),
                             (CudaEvent, "_complete", "KV arrival"),
                             (SlabAllocator, "alloc", "alloc")):
        original = cls.__dict__[name]

        def scoped(obj, *args, _original=original, _label=label):
            cause[0] = _label
            try:
                return _original(obj, *args)
            finally:
                cause[0] = "other"

        setattr(cls, name, scoped)
        undos.append(lambda cls=cls, name=name, original=original: setattr(cls, name, original))
    factor = AegaeonEngine.__dict__["perf_factor"]

    def set_factor(engine, value):
        cause[0] = "perf-factor change"
        try:
            factor.fset(engine, value)
        finally:
            cause[0] = "other"

    AegaeonEngine.perf_factor = property(factor.fget, set_factor)
    undos.append(lambda: setattr(AegaeonEngine, "perf_factor", factor))

    def collect() -> None:
        for chunks, _, _, _ in live.values():
            _close(decode, lengths, chunks, "collect")
        live.clear()

    return undos, collect


def _chunk_taps(instance, decode: Counter, lengths: Counter) -> tuple:
    """Group the per-chunk loop's chunks into the runs it could have
    formed (see the module docstring)."""
    from repro.engine.engine import AegaeonEngine

    DecodeInstance = instance.DecodeInstance
    commit = instance.commit_chunk
    require, fail = AegaeonEngine._require_active, DecodeInstance.fail
    # instance -> the run its chunks are in: ready ids and requests,
    # turn start and quota, end, chunks.
    open_runs: dict = {}
    started: dict = {}  # instance -> its batch's size as the chunk began

    def end_run(owner, cause: str) -> None:
        run = open_runs.pop(owner, None)
        if run is not None:
            _close(decode, lengths, run["chunks"], cause)

    def natural(run: dict, ids: tuple) -> str:
        if any(r.generated_tokens >= r.output_tokens for r in run["ready"]):
            return "member finish"
        if not run["end"] - run["turn_start"] < run["quota"]:
            return "quota"
        if set(ids) > set(run["ids"]):
            return "KV arrival"
        return "growth limit"

    def chunk_began(engine, spec):
        # The loop checks the model right before each chunk's timeout.
        frame = sys._getframe(1)
        owner = frame.f_locals.get("self")
        if isinstance(owner, DecodeInstance):
            started[owner] = len(frame.f_locals["batch"].requests)
        return require(engine, spec)

    def committed(requests, chunk_start, step, steps):
        frame = sys._getframe(1)
        owner = frame.f_locals.get("self")
        if isinstance(owner, DecodeInstance):
            decode["chunks"] += 1
            ids = tuple(r.request_id for r in requests)
            turn_start = frame.f_locals["turn_start"]
            run = open_runs.get(owner)
            if (
                run is None or run["ids"] != ids or run["end"] != chunk_start
                or run["turn_start"] != turn_start
            ):
                if run is not None:
                    end_run(owner, natural(run, ids))
                run = open_runs[owner] = {
                    "ids": ids, "ready": list(requests), "chunks": 0,
                    "quota": frame.f_locals["quota"], "turn_start": turn_start,
                }
            run["chunks"] += 1
            run["end"] = chunk_start + steps * step
            if len(frame.f_locals["batch"].requests) > started[owner]:
                # A join while the chunk ran: the loop sees it next.
                end_run(owner, "join")
        return commit(requests, chunk_start, step, steps)

    def failed(owner):
        end_run(owner, "failure")
        return fail(owner)

    instance.commit_chunk = committed
    AegaeonEngine._require_active = chunk_began
    DecodeInstance.fail = failed

    def undo() -> None:
        instance.commit_chunk = commit
        AegaeonEngine._require_active = require
        DecodeInstance.fail = fail

    def collect() -> None:
        for owner, run in list(open_runs.items()):
            cause = natural(run, ())
            end_run(owner, "collect" if cause == "growth limit" else cause)

    return [undo], collect


def census(
    name: str, seed: int, scale: float, loads: bool = False, decode: bool = False
) -> dict:
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
    decode_rows: Counter = Counter()
    lengths: Counter = Counter()
    collect = None
    if decode:
        decode_undos, collect = decode_taps(decode_rows, lengths)
        undos += decode_undos
    core.Environment.__init__ = tracked_init
    core.heappop = counting_pop
    try:
        with built(name, seed, scale) as replay:
            replay.replay()
        if collect is not None:
            collect()
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
    if decode:
        result["decode"] = dict(sorted(decode_rows.items()))
        result["run_lengths"] = dict(sorted(lengths.items()))
        if "runs fired" in decode_rows or not decode_rows["chunks"]:
            result["decode_saved_steps"] = decode_rows["chunks"] - decode_rows["runs fired"]
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
    if "decode" in result:
        kind = "formed" if "decode_saved_steps" in result else "the per-chunk loop could form"
        lines.append(f"decode chunks and runs ({kind}):")
        for label, count in result["decode"].items():
            lines.append(f"{count:>9,}  {label}")
        lengths = result["run_lengths"]
        runs = sum(lengths.values())
        if runs:
            chunks = sum(int(n) * count for n, count in lengths.items())
            lines.append(f"{chunks / runs:>9.2f}  mean chunks per run")
        lines.append("run lengths (chunks: runs): " + " ".join(
            f"{n}:{count}" for n, count in lengths.items()
        ))
        if "decode_saved_steps" in result:
            lines.append(
                f"{result['decode_saved_steps']:>9,}  steps + inlined saved by "
                "decode runs (chunks landed - runs fired)"
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
            saved = result.get("saved_steps", 0) + result.get("decode_saved_steps", 0)
            verdict = "holds" if moved == saved else "FAILS"
            return (
                f"identity {verdict}: baseline steps + inlined "
                f"{before['steps'] + before['steps_inlined']:,} - now "
                f"{result['steps'] + result['steps_inlined']:,} = {moved:,}; "
                f"runs account for {saved:,}"
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
        "--decode", action="store_true",
        help="also count decode chunks, runs, run lengths and what ended each run",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="with --loads or --decode: a --json census from before the runs "
        "counted, to check the step identity against",
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
        result = census(name, args.seed, args.scale, loads=args.loads, decode=args.decode)
        results.append(result)
        print(table(result, args.top))
        if (args.loads or args.decode) and baseline is not None:
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
