"""One simbench workload, built and ready to replay, for the census tools.

``tools/step_census.py`` and ``tools/wall_census.py`` both replay the
workloads of ``simbench/workloads.py`` outside simbench's own harness.
This module is the one copy of what they share: the workload names, the
loader for simbench's module (it is not a package), and the build step
with its fold tap, undone when the replay is over.  Stdlib only.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SIMBENCH = os.path.join(ROOT, "simbench")
WORKLOADS = ("fleet_market", "pool_sweep", "fleet_control")


def simbench_workloads():
    """``simbench/workloads.py`` as a module, with ``src`` on the path."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    name = "simbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SIMBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@contextmanager
def built(name: str, seed: int, scale: float):
    """Build workload ``name`` and yield its replay.

    A fleet workload's fold tap is installed before the build and
    removed on exit, whether or not the replay ran.
    """
    workloads = simbench_workloads()
    workload = workloads.WORKLOADS[name]
    dispositions = workloads.Dispositions()
    undo = workloads.install_fold_tap(dispositions) if workload.fleet else None
    try:
        yield workload.build(seed, scale, dispositions)
    finally:
        if undo is not None:
            undo()
