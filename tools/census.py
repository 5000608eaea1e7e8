"""Reachability census: which functions in ``src/repro`` anything calls.

Runs each workload below in its own Python process under a
``sys.settrace`` hook that records every function entered (``call``
events only; no line tracing), then sorts the functions of ``src/repro``
into five groups by line count:

* **protocol** — a method of a class that subclasses ``typing.Protocol``,
  or one whose body is only a docstring and ``raise
  NotImplementedError`` (a hook each subclass overrides): a signature
  stub no workload is meant to enter, so it is left out of the last
  three groups whether or not anything enters it;
* **display** — a ``__repr__`` or ``__str__``: it runs only when
  something is printed, so it is left out of the last three groups too;
* **unreached** — no workload enters the function;
* **test-only** — only the tier-1 suite (``tests/``) enters it;
* **reached** — some example, bench, simbench worker or entry point does.

A function's lines are its source span minus the spans of functions
defined inside it, so nested functions are counted once.  Module and
class bodies run at import and are not counted.  The census is
approximate: code that runs only in a subprocess a workload starts
itself is missed (simbench workers are therefore run directly).

Workloads: the tier-1 suite; the eight examples (plus the ``--compare
--quick`` modes of the two replay examples); quickstart under every
policy bundle; the figure benches at ``REPRO_BENCH_HORIZON=40``; one
small simbench worker per workload; one in-process run of each
``benchmarks.perf`` scenario (``python -m benchmarks.perf.run``); and
``python -m repro.envkeys``.  A full census takes
about ten minutes on a 2-vCPU x86-64 host.  Stdlib only; run by hand::

    python tools/census.py                  # summary
    python tools/census.py --list           # plus every unreached /
                                            # test-only function
    python tools/census.py --json out.json  # machine-readable result
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

EXAMPLES = (
    ("agentic_replay.py",),
    ("agentic_replay.py", "--compare", "--quick"),
    ("autoscaling_anatomy.py",),
    ("burst_absorption.py",),
    ("capacity_planning.py",),
    ("chaos_smoke.py",),
    ("fleet_market_replay.py",),
    ("fleet_market_replay.py", "--compare", "--quick"),
    ("market_pooling.py",),
    ("quickstart.py",),
)
BUNDLES = (
    "aegaeon",
    "aegaeon-cost-router",
    "aegaeon-slo-admission",
    "muxserve",
    "muxserve-cost-placement",
    "serverless-llm",
    "serverless-llm+",
    "unified-decode-first",
    "unified-prefill-first",
)
SIMBENCH_WORKLOADS = ("fleet_market", "fleet_control", "pool_sweep")
#: Methods that only render an object; the census's "display" group.
DISPLAY = ("__repr__", "__str__")


def workloads() -> list[tuple[str, list[str], dict[str, str]]]:
    """(group, target argv, extra environment) for every census run.

    A target argv starts with ``-m MODULE`` or a script path.
    """
    runs = [("tests", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"], {})]
    for argv in EXAMPLES:
        runs.append(("examples", [os.path.join(ROOT, "examples", argv[0]), *argv[1:]], {}))
    for bundle in BUNDLES:
        runs.append(
            (
                "quickstart",
                [os.path.join(ROOT, "examples", "quickstart.py")],
                {"REPRO_POLICIES": bundle},
            )
        )
    runs.append(
        (
            "benches",
            ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
             "benchmarks"],
            {"REPRO_BENCH_HORIZON": "40"},
        )
    )
    for name in SIMBENCH_WORKLOADS:
        runs.append(
            (
                "simbench",
                [os.path.join(ROOT, "simbench", "worker.py"), "--workload", name,
                 "--seed", "1", "--mode", "rep", "--scale", "0.2"],
                {},
            )
        )
    runs.append(("perf", ["-m", "benchmarks.perf.run"], {}))
    runs.append(("envkeys", ["-m", "repro.envkeys"], {}))
    return runs


# -- the traced child ----------------------------------------------------------
def child(out: str, target: list[str]) -> int:
    """Run ``target`` under the call tracer; write what it entered to ``out``."""
    codes: set = set()
    add = codes.add

    def tracer(frame, event, arg):
        add(frame.f_code)

    threading.settrace(tracer)
    sys.settrace(tracer)
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            sys.path.insert(0, os.path.dirname(target[0]))
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        prefix = PACKAGE + os.sep
        seen = sorted(
            {
                (os.path.relpath(c.co_filename, SRC), c.co_firstlineno)
                for c in codes
                if c.co_filename.startswith(prefix)
            }
        )
        with open(out, "w") as handle:
            json.dump(seen, handle)
    return code


# -- the function table ----------------------------------------------------------
def functions() -> dict[tuple[str, int], tuple[str, int, bool]]:
    """(file, first line) -> (qualified name, own line count, is a
    protocol method) for ``src/repro``.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line when the function has decorators.
    """
    table = {}
    for folder, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, SRC)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            _collect(tree, rel, "", table)
    return table


def _collect(
    node, rel: str, scope: str, table: dict, protocol: bool = False
) -> int:
    """Record every function under ``node``; return the lines they span."""
    spanned = 0
    for item in ast.iter_child_nodes(node):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([item.lineno] + [d.lineno for d in item.decorator_list])
            span = item.end_lineno - first + 1
            inner = _collect(item, rel, f"{scope}{item.name}.", table, protocol)
            stub = protocol or _is_stub(item)
            table[(rel, first)] = (f"{scope}{item.name}", span - inner, stub)
            spanned += span
        elif isinstance(item, ast.ClassDef):
            spanned += _collect(
                item, rel, f"{scope}{item.name}.", table, _is_protocol(item)
            )
        else:
            spanned += _collect(item, rel, scope, table, protocol)
    return spanned


def _is_protocol(node: ast.ClassDef) -> bool:
    """True when a base is ``Protocol`` / ``typing.Protocol`` (or ``Protocol[T]``)."""
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
        if name == "Protocol":
            return True
    return False


def _is_stub(node: ast.FunctionDef) -> bool:
    """True when the body is only an optional docstring and ``raise
    NotImplementedError`` (or ``raise NotImplementedError(...)``)."""
    body = node.body
    if (
        body and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


# -- the driver -------------------------------------------------------------------
def census(only: set[str] | None, log) -> dict:
    reached: dict[tuple[str, int], set[str]] = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    with tempfile.TemporaryDirectory(prefix="census-") as workdir:
        for index, (group, target, extra) in enumerate(workloads()):
            if only is not None and group not in only:
                continue
            out = os.path.join(workdir, f"{index}.json")
            log(f"[{group}] {' '.join(target)} {extra or ''}")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", out, "--", *target],
                cwd=workdir if group in ("examples", "quickstart") else ROOT,
                env={**env, **extra},
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if proc.returncode:
                log(f"  exit {proc.returncode} (counted anyway)")
            with open(out) as handle:
                for rel, line in json.load(handle):
                    reached.setdefault((rel, line), set()).add(group)
    table = functions()
    kinds = ("protocol", "display", "unreached", "test-only", "reached")
    rows = {kind: [] for kind in kinds}
    for key, (name, lines, protocol) in sorted(table.items()):
        groups = reached.get(key, set())
        if protocol:
            kind = "protocol"
        elif name.rpartition(".")[2] in DISPLAY:
            kind = "display"
        elif not groups:
            kind = "unreached"
        else:
            kind = "test-only" if groups == {"tests"} else "reached"
        rows[kind].append({"file": key[0], "line": key[1], "name": name, "lines": lines})
    return {
        "src_lines": _count_lines(),
        "totals": {
            kind: {"functions": len(items), "lines": sum(r["lines"] for r in items)}
            for kind, items in rows.items()
        },
        "functions": rows,
    }


def _count_lines() -> int:
    total = 0
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    total += sum(1 for _ in handle)
    return total


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list every unreached and test-only function")
    parser.add_argument("--json", metavar="FILE", help="write the full result as JSON")
    parser.add_argument(
        "--only", action="append", metavar="GROUP",
        help="run only this workload group (repeatable): tests, examples, "
        "quickstart, benches, simbench, perf, envkeys",
    )
    args = parser.parse_args(argv)
    result = census(set(args.only) if args.only else None, lambda msg: print(msg, file=sys.stderr))
    print(f"src/repro: {result['src_lines']} lines")
    for kind, total in result["totals"].items():
        print(f"{kind:>10}: {total['lines']:5d} lines in {total['functions']} functions")
    if args.list:
        for kind in ("unreached", "test-only"):
            print(f"\n{kind}:")
            for row in result["functions"][kind]:
                print(f"  {row['file']}:{row['line']}  {row['name']}  ({row['lines']})")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
