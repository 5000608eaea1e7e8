"""Shared hypothesis strategies for the repro test suite.

One place for the domain vocabulary the property tests keep re-deriving:
model/GPU names from the paper's catalog, realistic prompt lengths and
batch shapes, the decode-quota parameter space (Eqs. 2-3), allocator
op-sequences, and seeded chaos fault plans.  Test modules import from
here instead of redefining ad-hoc `st.*` bounds, so "what counts as a
realistic workload" is defined exactly once.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.chaos import FaultPlan
from repro.hardware import GPU_PRESETS
from repro.models import MODEL_CATALOG
from repro.workload.agentic import (
    AgenticConfig,
    agent_variant_groups,
    draw_session_plan,
)
from repro.workload.sharegpt import sharegpt

__all__ = [
    "MiB",
    "MODEL_NAMES",
    "GPU_NAMES",
    "model_names",
    "gpu_names",
    "prompt_lengths",
    "batch_sizes",
    "context_tokens",
    "arrivals",
    "token_counts",
    "emission_rates",
    "step_times",
    "switch_costs",
    "alloc_sizes",
    "slab_operations",
    "kv_owner_operations",
    "stream_programs",
    "fault_seeds",
    "fault_plans",
    "session_seeds",
    "session_plans",
    "agentic_configs",
]

MiB = 1024**2

MODEL_NAMES = sorted(MODEL_CATALOG)
GPU_NAMES = sorted(GPU_PRESETS)

# -- catalog sampling ---------------------------------------------------------
model_names = st.sampled_from(MODEL_NAMES)
gpu_names = st.sampled_from(GPU_NAMES)

# -- request shapes -----------------------------------------------------------
#: Prompt lengths spanning chat one-liners to long documents.
prompt_lengths = st.integers(min_value=1, max_value=8192)
#: Decode batch sizes up to the server's configured maximum.
batch_sizes = st.integers(min_value=1, max_value=64)
#: Total KV context a decode step attends over.
context_tokens = st.integers(min_value=1, max_value=65536)

# -- SLO / token-timing space -------------------------------------------------
arrivals = st.floats(min_value=0, max_value=100)
token_counts = st.integers(min_value=1, max_value=200)
#: Per-token emission intervals strictly faster than the 100 ms TBT.
emission_rates = st.floats(min_value=0.001, max_value=0.099)

# -- decode quota equations (Eqs. 2-3) ----------------------------------------
#: Per-batch step-time estimates: from tiny models to near-TBT.
step_times = st.lists(
    st.floats(min_value=0.002, max_value=0.09), min_size=2, max_size=10
)
#: Summed auto-scaling cost of a round's model switches.
switch_costs = st.floats(min_value=0.01, max_value=20.0)

# -- allocators ---------------------------------------------------------------
#: Byte sizes for bump-allocator sequences.
alloc_sizes = st.integers(min_value=1, max_value=2000)


def slab_operations(
    shapes: int = 4, max_blocks: int = 12, max_size: int = 60
) -> st.SearchStrategy:
    """Sequences of ``(action, shape_id, count)`` slab-allocator ops.

    ``action`` is ``"alloc"`` or ``"free"``; ``shape_id`` indexes one of
    ``shapes`` distinct KV shapes; ``count`` is how many blocks an alloc
    takes, or how many of the shape's oldest allocations a free releases
    whole.  Drives interleaved multi-shape churn against a
    :class:`~repro.memory.SlabAllocator`.
    """
    return st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free"]),
            st.integers(min_value=0, max_value=shapes - 1),
            st.integers(min_value=1, max_value=max_blocks),
        ),
        max_size=max_size,
    )


def kv_owner_operations(
    shapes: int = 4, max_blocks: int = 40, max_size: int = 80
) -> st.SearchStrategy:
    """Sequences of ``(action, shape_id, block_count, owner)`` KV-owner ops.

    Models how serving uses the KV cache: ``"alloc"`` gives a new owner
    ``block_count`` blocks of shape ``shape_id``; ``"grow"`` appends
    ``block_count`` blocks to an existing owner, and ``"free"`` releases
    one owner whole.  ``owner`` picks the existing owner, modulo the
    number alive.
    """
    return st.lists(
        st.tuples(
            st.sampled_from(["alloc", "grow", "free"]),
            st.integers(min_value=0, max_value=shapes - 1),
            st.integers(min_value=1, max_value=max_blocks),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=max_size,
    )


# -- CUDA stream programs -----------------------------------------------------
def stream_programs(
    streams: int = 3, events: int = 3, max_size: int = 40
) -> st.SearchStrategy:
    """Host programs for the stream differential test, one op per tuple.

    ``("copy", stream, direction, units, then)`` moves ``units`` quarter-
    seconds of bytes over one direction of a shared duplex link, so
    streams contend for a copy engine; ``("compute", stream, units,
    then)`` runs a kernel of ``units`` quarter-seconds (zero allowed).
    ``then`` is a stream index, or ``-1``: its ``on_done`` callback
    enqueues a short compute on that stream.  ``("record" | "wait_event",
    stream, event)``, ``("sync", stream)``, ``("sync_all", streams)``,
    ``("host_wait", event)``, ``("query", event)`` and ``("sleep",
    units)`` complete the mix.  Quarter-second units keep every time an
    exact binary fraction, so completions on different streams collide
    at one instant.
    """
    stream = st.integers(min_value=0, max_value=streams - 1)
    event = st.integers(min_value=0, max_value=events - 1)
    units = st.integers(min_value=0, max_value=4)
    then = st.integers(min_value=-1, max_value=streams - 1)
    op = st.one_of(
        st.tuples(st.just("copy"), stream, st.integers(0, 1), units, then),
        st.tuples(st.just("compute"), stream, units, then),
        st.tuples(st.just("record"), stream, event),
        st.tuples(st.just("wait_event"), stream, event),
        st.tuples(st.just("sync"), stream),
        st.tuples(
            st.just("sync_all"),
            st.lists(stream, min_size=1, max_size=streams, unique=True),
        ),
        st.tuples(st.just("host_wait"), event),
        st.tuples(st.just("query"), event),
        st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=3)),
    )
    return st.lists(op, max_size=max_size)


# -- chaos --------------------------------------------------------------------
fault_seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- agentic DAGs -------------------------------------------------------------
session_seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: Shared fixtures for plan drawing: the groups/dataset are pure lookup
#: tables, so sharing them across examples changes nothing.
_PLAN_GROUPS = agent_variant_groups(3)
_PLAN_DATASET = sharegpt()


def _draw_plan(seed: int, stages: int, fanout: int, join: float):
    config = AgenticConfig(
        seed=seed,
        min_stages=1,
        max_stages=stages,
        max_fanout=fanout,
        join_probability=join,
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return draw_session_plan(
        rng,
        session=0,
        base_id=0,
        arrival=0.0,
        config=config,
        groups=_PLAN_GROUPS,
        dataset=_PLAN_DATASET,
    )


def session_plans(max_stages: int = 8, max_fanout: int = 3) -> st.SearchStrategy:
    """Seeded :class:`~repro.workload.agentic.SessionPlan` DAGs.

    Like :func:`fault_plans`, the strategy draws only the scalar inputs
    ``(seed, stage cap, fan-out cap, join probability)`` and delegates to
    :func:`~repro.workload.agentic.draw_session_plan`, so "a generated
    DAG" in the property tests means exactly what the workload generator
    produces: acyclic by construction, connected, fan-out bounded, token
    budgets positive.  Shrinking reduces to smaller seeds and caps.
    """
    return st.builds(
        _draw_plan,
        seed=session_seeds,
        stages=st.integers(min_value=1, max_value=max_stages),
        fanout=st.integers(min_value=1, max_value=max_fanout),
        join=st.floats(min_value=0.0, max_value=1.0),
    )


def agentic_configs(max_rate: float = 4.0, max_horizon: float = 60.0) -> st.SearchStrategy:
    """Valid :class:`~repro.workload.agentic.AgenticConfig` draws for
    whole-stream properties (re-iteration identity, id-block layout)."""
    return st.builds(
        AgenticConfig,
        session_rate=st.floats(min_value=0.1, max_value=max_rate),
        horizon=st.floats(min_value=1.0, max_value=max_horizon),
        seed=session_seeds,
        agents=st.integers(min_value=1, max_value=4),
        max_fanout=st.integers(min_value=1, max_value=3),
        join_probability=st.floats(min_value=0.0, max_value=1.0),
    )


def fault_plans(
    horizon: float,
    instances: tuple[str, ...] = (),
    max_faults: int = 6,
    max_kills: int = 1,
) -> st.SearchStrategy:
    """Seeded :class:`~repro.chaos.FaultPlan` drawn over ``[0, horizon)``.

    The strategy only draws the ``(seed, count)`` pair and delegates to
    :meth:`FaultPlan.seeded`, so every generated plan is reproducible
    from its ``plan.seed`` — shrinking reduces to smaller seeds and
    fewer faults, and a failing example can be replayed by hand.
    """
    return st.builds(
        FaultPlan.seeded,
        seed=fault_seeds,
        horizon=st.just(horizon),
        count=st.integers(min_value=1, max_value=max_faults),
        instances=st.just(tuple(instances)),
        max_kills=st.just(max_kills),
    )
