"""Tracked performance benchmarks for the simulator itself.

Unlike the figure benches (which regenerate paper results), these time
the simulator: raw event throughput through the kernel
(``kernel_event_throughput``), a model-switch storm that stresses the
scheduler and KV-transfer hot paths (``switch_storm``), and, opt-in, a
10^6-request fleet replay with its RSS high-water mark
(``fleet_replay_1m``).  The serving workloads themselves are simbench's
(``simbench/``); the pair gate times those too.

Run each scenario once and check its counters against the committed
``BENCH_counters.json``::

    python -m benchmarks.perf.run

and gate a change against a checkout of its parent, in same-host pairs
(CI's perf-smoke job)::

    python -m benchmarks.perf.run --parent ../parent

See ``run.py`` for the gate.
"""
