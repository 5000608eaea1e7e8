"""Agentic workloads: seeded multi-step request DAGs with session affinity.

Every request the platform served before this module was an i.i.d.
single-shot sample.  Agentic traffic (Scepsy, PAPERS.md) is different in
kind: one user turn fans out into a *pipeline* of LLM calls — plan, tool
call, summarize — where stage N+1 can only be submitted once stage N has
finished, consecutive stages want to land where the session's KV already
lives, and each stage may be routable across model *variants* (a cheap
7B draft model vs the flagship) under a per-session cost budget
(ECCOS/EconoServe, PAPERS.md).

The vocabulary here is three frozen values plus one generator:

* :class:`StagePlan` — one node of a session DAG: token budgets, the
  stages it depends on (always earlier indices, so plans are acyclic by
  construction), a think-time gap, a predicted difficulty in ``[0, 1)``,
  and the model variants the stage may route across.
* :class:`SessionPlan` — a whole session: the stage tuple plus the
  contiguous request-id block ``base_id .. base_id + len(stages) - 1``
  the stages will occupy, so agentic ids never collide with a market
  stream's ids when the two are merged.
* :class:`AgenticRequest` — a :class:`~repro.workload.stream.TraceRequest`
  subclass carrying the session id, stage index, dependency edges, the
  KV-affinity tag, difficulty, and variants.  Everything downstream
  (admission, dispatch, the fleet pump) treats it as an ordinary trace
  record; session-aware components read the extra fields.
* :func:`agentic_stream` — a seeded, re-iterable
  :class:`~repro.workload.stream.RequestStream` of **root stages only**,
  in arrival order.  Non-root stages are *not* in the stream: their
  submission is triggered at runtime by the
  :class:`~repro.core.sessions.SessionCoordinator` when their
  dependencies finish, as ordinary simulation events, so replays stay
  byte-reproducible per seed.

Determinism follows the streaming contract of
:mod:`repro.workload.stream`: one ``numpy`` generator seeded from
``AgenticConfig.seed`` drives session arrivals and every per-session
draw, so iterating the same stream twice (or in two processes) yields
identical plans byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from ..models.catalog import ModelSpec, get_model
from .sharegpt import Dataset, sharegpt
from .stream import RequestStream, TraceRequest

__all__ = [
    "StagePlan",
    "SessionPlan",
    "AgenticRequest",
    "AgenticConfig",
    "agent_variant_groups",
    "draw_session_plan",
    "agentic_stream",
]


@dataclass(frozen=True)
class StagePlan:
    """One node of a session DAG.

    ``deps`` may only reference *earlier* stage indices, which makes
    every constructible plan acyclic — there is no separate validation
    pass to forget.
    """

    index: int
    #: The default serving model — by convention the *largest* variant,
    #: so a run without the cost router reproduces always-largest routing.
    model: str
    input_tokens: int
    output_tokens: int
    deps: tuple[int, ...] = ()
    #: Simulated user/tool think time between the last dependency
    #: finishing and this stage's submission.
    think_time: float = 0.0
    #: Predicted difficulty in ``[0, 1]``; the cost router compares it
    #: against ``Tunables.router_difficulty_threshold``.
    difficulty: float = 1.0
    #: Model variants this stage may be routed across, cheapest first;
    #: fewer than two variants means the stage is not routable.
    variants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("stage index must be non-negative")
        if self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("stage token budgets must be positive")
        if len(set(self.deps)) != len(self.deps):
            raise ValueError("duplicate dependency edges")
        if any(dep < 0 or dep >= self.index for dep in self.deps):
            raise ValueError(
                f"stage {self.index}: deps must reference earlier stages"
            )
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError("difficulty must be in [0, 1]")


@dataclass(frozen=True)
class SessionPlan:
    """A whole session: its DAG plus the request-id block it occupies."""

    session: int
    #: First request id of the session's contiguous id block; stage ``i``
    #: is always request ``base_id + i``.
    base_id: int
    arrival: float
    stages: tuple[StagePlan, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a session needs at least one stage")
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if [stage.index for stage in self.stages] != list(range(len(self.stages))):
            raise ValueError("stage indices must be 0..n-1 in order")

    def roots(self) -> tuple[StagePlan, ...]:
        """Stages with no dependencies — submitted at session arrival."""
        return tuple(stage for stage in self.stages if not stage.deps)

    def successors(self, index: int) -> tuple[StagePlan, ...]:
        """Stages that directly depend on stage ``index``."""
        return tuple(stage for stage in self.stages if index in stage.deps)

    def fanout(self, index: int) -> int:
        """Number of direct children of stage ``index``."""
        return sum(1 for stage in self.stages if index in stage.deps)

    def max_fanout(self) -> int:
        """The widest fan-out of any stage in this plan."""
        return max(self.fanout(stage.index) for stage in self.stages)

    @property
    def affinity(self) -> str:
        """The KV-affinity tag every stage of this session carries."""
        return f"s{self.session}"

    def request_for(self, stage: StagePlan, arrival: float) -> "AgenticRequest":
        """Materialize one stage as a submittable trace record."""
        return AgenticRequest(
            request_id=self.base_id + stage.index,
            model=stage.model,
            arrival=arrival,
            input_tokens=stage.input_tokens,
            output_tokens=stage.output_tokens,
            session=self.session,
            stage=stage.index,
            deps=stage.deps,
            affinity=self.affinity,
            difficulty=stage.difficulty,
            variants=stage.variants,
            plan=self,
        )


@dataclass(frozen=True)
class AgenticRequest(TraceRequest):
    """A trace record that knows which session DAG it belongs to.

    Plain consumers see an ordinary :class:`TraceRequest`; session-aware
    components (the coordinator, the cost router, affinity dispatch)
    read the extra fields.  ``plan`` rides along so a completion-side
    hook can build successor stages without any side lookup table.
    """

    session: int = 0
    stage: int = 0
    deps: tuple[int, ...] = ()
    affinity: str = ""
    difficulty: float = 1.0
    variants: tuple[str, ...] = ()
    plan: Optional[SessionPlan] = field(default=None, repr=False)


@dataclass(frozen=True)
class AgenticConfig:
    """Shape of an agentic workload."""

    #: Session arrivals per second (a Poisson process over the horizon).
    session_rate: float = 0.2
    #: Seconds of session *arrivals*; triggered stages may run past it
    #: (the serving systems' drain grace covers the tail).
    horizon: float = 120.0
    seed: int = 0
    #: Distinct agent deployments, each a (small, large) variant pair.
    agents: int = 4
    min_stages: int = 2
    max_stages: int = 5
    #: Maximum direct children of any stage (bounded fan-out).
    max_fanout: int = 2
    #: Mean think time between dependent stages (exponential draws).
    think_time: float = 0.2
    #: Probability an eligible stage picks up a second parent (fan-in).
    join_probability: float = 0.25
    #: First request id; the default leaves the low id space to market
    #: streams so the two can be merged without collisions.
    start_id: int = 1_000_000

    def __post_init__(self) -> None:
        if self.session_rate <= 0:
            raise ValueError("session_rate must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.agents < 1:
            raise ValueError("agents must be >= 1")
        if not 1 <= self.min_stages <= self.max_stages:
            raise ValueError("need 1 <= min_stages <= max_stages")
        if self.max_fanout < 1:
            raise ValueError("max_fanout must be >= 1")
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if not 0.0 <= self.join_probability <= 1.0:
            raise ValueError("join_probability must be in [0, 1]")


def agent_variant_groups(
    count: int, small: str = "Qwen-1.8B", large: str = "Qwen-7B"
) -> list[tuple[ModelSpec, ...]]:
    """Per-agent model variant pairs, cheapest first.

    Each agent on the market is a distinct deployable (separate weights,
    separate KV), so every group gets its own ``name@agentK`` identities
    even though the architectures repeat — the same convention
    :func:`~repro.models.catalog.market_mix` uses.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    small_spec = get_model(small)
    large_spec = get_model(large)
    if small_spec.params >= large_spec.params:
        raise ValueError("small variant must be smaller than large variant")
    return [
        (
            replace(small_spec, name=f"{small}@agent{index}"),
            replace(large_spec, name=f"{large}@agent{index}"),
        )
        for index in range(count)
    ]


def draw_session_plan(
    rng: np.random.Generator,
    session: int,
    base_id: int,
    arrival: float,
    config: AgenticConfig,
    groups: Sequence[tuple[ModelSpec, ...]],
    dataset: Dataset,
) -> SessionPlan:
    """Draw one session DAG from ``rng`` (the generator's inner step).

    Stage 0 is always a root; every later stage takes one parent drawn
    among earlier stages with spare fan-out (so the DAG is connected and
    fan-out is bounded by ``config.max_fanout``), plus, with
    ``config.join_probability``, a second parent — the join/fan-in shape
    agentic pipelines exhibit.  Exposed for the hypothesis strategies,
    which delegate here so "a generated plan" means exactly one thing.
    """
    count = int(rng.integers(config.min_stages, config.max_stages + 1))
    group = groups[int(rng.integers(len(groups)))]
    variants = tuple(spec.name for spec in group)
    largest = group[-1].name
    children = [0] * count
    stages = []
    for index in range(count):
        deps: tuple[int, ...] = ()
        if index > 0:
            open_slots = [
                j for j in range(index) if children[j] < config.max_fanout
            ]
            primary = open_slots[int(rng.integers(len(open_slots)))]
            children[primary] += 1
            chosen = {primary}
            extras = [j for j in open_slots if j not in chosen]
            if extras and float(rng.random()) < config.join_probability:
                extra = extras[int(rng.integers(len(extras)))]
                children[extra] += 1
                chosen.add(extra)
            deps = tuple(sorted(chosen))
        sample = dataset.draw(rng)
        difficulty = float(rng.random())
        think = (
            float(rng.exponential(config.think_time))
            if config.think_time > 0 and index > 0
            else 0.0
        )
        stages.append(
            StagePlan(
                index=index,
                model=largest,
                input_tokens=sample.input_tokens,
                output_tokens=sample.output_tokens,
                deps=deps,
                think_time=think,
                difficulty=difficulty,
                variants=variants,
            )
        )
    return SessionPlan(
        session=session, base_id=base_id, arrival=arrival, stages=tuple(stages)
    )


def agentic_stream(
    config: Optional[AgenticConfig] = None,
    *,
    groups: Optional[Sequence[tuple[ModelSpec, ...]]] = None,
    dataset: Optional[Dataset] = None,
    name: str = "agentic",
) -> RequestStream:
    """A seeded stream of agentic session *root* stages, arrival-ordered.

    The stream's ``models`` carry every variant of every agent group, so
    ``prepare()`` warms all of them and ``spec_of`` resolves whatever
    model a router picks.  Only root stages are yielded; dependent
    stages must be submitted by a
    :class:`~repro.core.sessions.SessionCoordinator` reacting to
    completions.  Request ids are allocated as contiguous per-session
    blocks from ``config.start_id`` — offset it (or rely on the default
    1e6 floor) to merge with a market stream without collisions.
    """
    config = config if config is not None else AgenticConfig()
    groups = (
        list(groups) if groups is not None else agent_variant_groups(config.agents)
    )
    if not groups:
        raise ValueError("need at least one variant group")
    dataset = dataset if dataset is not None else sharegpt()
    models = tuple(spec for group in groups for spec in group)

    def _iterate() -> Iterator[TraceRequest]:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        now = 0.0
        session = 0
        base_id = config.start_id
        while True:
            now += float(rng.exponential(1.0 / config.session_rate))
            if now >= config.horizon:
                return
            plan = draw_session_plan(
                rng, session, base_id, now, config, groups, dataset
            )
            session += 1
            base_id += len(plan.stages)
            for stage in plan.roots():
                yield plan.request_for(stage, now)

    return RequestStream(models, config.horizon, _iterate, name=name)
