"""Completion-triggered submission of agentic session DAGs.

A :class:`~repro.workload.agentic.SessionPlan` only puts its *root*
stages on the wire; every dependent stage must be submitted when its
dependencies finish, after the stage's think time.  The
:class:`SessionCoordinator` is that trigger loop, and it is deliberately
an ordinary simulation actor: stage submissions are ``env.process``
events on the shared clock, scheduled from each shard's
terminal-disposition observer (``request_sink``), which runs right after
the shard folds the request into its stats.  Nothing here
consults wall time or private RNG state, so an agentic replay is exactly
as byte-reproducible as the stream that seeds it.

Accounting contract (the conservation property the tests pin): for every
session, ``stages_submitted == stages_finished + stages_failed +
stages_rejected`` once the run drains.  A failed or rejected stage
aborts its *downstream* — successors of a stage that never finished are
never submitted — so sessions complete iff every stage finished.  The
coordinator's :meth:`drained` predicate keeps the fleet run from
draining across think-time gaps where the shards look idle but a stage
submission is still pending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..workload.agentic import SessionPlan, StagePlan
from ..workload.stream import RequestStream

__all__ = ["SessionStats", "SessionCoordinator"]


@dataclass
class _LiveSession:
    """Mutable tracking state for one in-flight session."""

    plan: SessionPlan
    #: Stage indices whose requests have been put on the wire.
    submitted: set[int] = field(default_factory=set)
    #: Stage indices scheduled for submission (supersets ``submitted``
    #: while a think-time timeout is pending).
    triggered: set[int] = field(default_factory=set)
    #: Stage indices that finished successfully.
    done: set[int] = field(default_factory=set)
    #: Terminal dispositions seen so far (finished + failed + rejected).
    settled: int = 0
    #: Trigger processes scheduled but not yet submitted.
    pending: int = 0
    aborted: bool = False
    finalized: bool = False


@dataclass
class SessionStats:
    """Mergeable per-run session accounting (the conservation ledger)."""

    sessions_started: int = 0
    sessions_completed: int = 0
    sessions_aborted: int = 0
    stages_submitted: int = 0
    stages_finished: int = 0
    stages_failed: int = 0
    stages_rejected: int = 0
    #: Stages whose dependencies never all finished (pruned downstream
    #: of a failure/rejection) — the complement that makes per-plan
    #: accounting total: submitted + skipped == sum(len(plan.stages)).
    stages_skipped: int = 0

    def as_dict(self) -> dict:
        """Plain-dict form for rollups and digesting."""
        return {
            "sessions_started": self.sessions_started,
            "sessions_completed": self.sessions_completed,
            "sessions_aborted": self.sessions_aborted,
            "stages_submitted": self.stages_submitted,
            "stages_finished": self.stages_finished,
            "stages_failed": self.stages_failed,
            "stages_rejected": self.stages_rejected,
            "stages_skipped": self.stages_skipped,
        }


class SessionCoordinator:
    """Drives session DAGs to completion over any submission channel.

    One coordinator serves one fleet run; a single system runs as a
    one-shard fleet.  ``spec_of`` resolves a model name to its
    :class:`~repro.models.catalog.ModelSpec` (usually the stream's
    ``spec_of``); the submission channel is bound late via :meth:`bind`
    to ``FleetRunner.submit_routed``, the pump's own channel.

    Wiring: ``fleet.attach_sessions(coordinator)`` binds the channel,
    and makes :meth:`on_settled` every shard's ``request_sink``, which
    the shard calls *after* folding the request into its stats; then
    the stream is wrapped with
    :meth:`wrap_stream` so root submissions are counted as they leave
    the pump.
    """

    def __init__(
        self,
        env,
        spec_of: Callable[[str], object],
        *,
        obs=None,
    ):
        self.env = env
        self.spec_of = spec_of
        self.obs = obs
        self.stats = SessionStats()
        #: Finalized per-session rows, keyed by session id.
        self.per_session: dict[int, dict] = {}
        self._live: dict[int, _LiveSession] = {}
        self._submit: Optional[Callable[[object, object], None]] = None
        #: Trigger processes scheduled but not yet submitted, run-wide.
        #: Non-zero means the run is *not* drained even if every
        #: submitted request has settled.
        self.outstanding = 0

    # -- wiring --------------------------------------------------------------
    def bind(self, submit: Callable[[object, object], None]) -> None:
        """Set the submission channel for triggered stages."""
        self._submit = submit

    def drained(self) -> bool:
        """False while any triggered stage has not been submitted yet."""
        return self.outstanding == 0

    def wrap_stream(self, stream: RequestStream) -> RequestStream:
        """A stream that notifies this coordinator of each pumped root.

        The wrapper is **single-use**: iterating it twice would count
        root submissions twice.  Wrap immediately before the run.
        """

        def _iterate():
            for request in stream:
                self.note_submitted(request)
                yield request

        return RequestStream(
            stream.models, stream.horizon, _iterate,
            rates=stream.rates, name=f"{stream.name}+sessions",
        )

    # -- event hooks ---------------------------------------------------------
    def note_submitted(self, trace_request) -> None:
        """Record one stage hitting the wire (root or triggered)."""
        plan = getattr(trace_request, "plan", None)
        if plan is None:
            return  # market traffic riding the same stream
        sess = self._live.get(plan.session)
        if sess is None:
            sess = self._live[plan.session] = _LiveSession(plan=plan)
            self.stats.sessions_started += 1
            self._instant(
                "session.start", session=plan.session,
                stages=len(plan.stages), arrival=plan.arrival,
            )
        stage = trace_request.stage
        sess.triggered.add(stage)
        sess.submitted.add(stage)
        self.stats.stages_submitted += 1
        self._instant(
            "session.stage.submit", session=plan.session, stage=stage,
            model=trace_request.model,
        )

    def on_settled(self, request) -> None:
        """Terminal-disposition hook: advance the session's DAG.

        Runs after the shard's stats fold, so the fold sees the request
        first.  Called with the live :class:`Request`; market
        requests (no ``plan`` on their trace) pass through untouched.
        """
        trace = request.trace
        plan = getattr(trace, "plan", None)
        if plan is None:
            return
        sess = self._live.get(plan.session)
        if sess is None:
            return  # already finalized (defensive; dispositions are unique)
        from ..engine.request import Phase

        stage = trace.stage
        sess.settled += 1
        phase = request.phase
        if phase is Phase.FINISHED:
            self.stats.stages_finished += 1
            sess.done.add(stage)
            for nxt in plan.successors(stage):
                if nxt.index in sess.triggered:
                    continue
                if not all(dep in sess.done for dep in nxt.deps):
                    continue
                sess.triggered.add(nxt.index)
                sess.pending += 1
                self.outstanding += 1
                self.env.process(self._trigger(sess, nxt))
        else:
            if phase is Phase.REJECTED:
                self.stats.stages_rejected += 1
            else:
                self.stats.stages_failed += 1
            sess.aborted = True
        self._instant(
            "session.stage.settle", session=plan.session, stage=stage,
            phase=phase.name.lower(),
        )
        self._maybe_finalize(sess)

    # -- internals -----------------------------------------------------------
    def _trigger(self, sess: _LiveSession, stage: StagePlan):
        """Submit one dependent stage after its think time (a sim event)."""
        yield self.env.timeout(stage.think_time)
        request = sess.plan.request_for(stage, self.env.now)
        sess.pending -= 1
        self.outstanding -= 1
        if self._submit is None:
            raise RuntimeError(
                "SessionCoordinator.bind() must precede stage completion"
            )
        # Count the submission *before* handing it to the channel: an
        # admission rejection can settle synchronously inside _submit,
        # and on_settled must see the stage on the submitted ledger.
        self.note_submitted(request)
        self._submit(request, self.spec_of(request.model))
        self._maybe_finalize(sess)

    def _maybe_finalize(self, sess: _LiveSession) -> None:
        # _trigger holds a direct reference, so a synchronous settle
        # inside its submit can reach here twice for the same session.
        if sess.finalized or sess.pending or sess.settled < len(sess.submitted):
            return
        # A multi-root plan's roots are pumped back to back at the same
        # arrival; don't finalize between them if the first settles
        # synchronously (admission rejection).
        if any(
            stage.index not in sess.submitted for stage in sess.plan.roots()
        ):
            return
        sess.finalized = True
        plan = sess.plan
        completed = len(sess.done) == len(plan.stages)
        if completed:
            self.stats.sessions_completed += 1
        else:
            self.stats.sessions_aborted += 1
        self.stats.stages_skipped += len(plan.stages) - len(sess.submitted)
        self.per_session[plan.session] = {
            "stages": len(plan.stages),
            "submitted": len(sess.submitted),
            "finished": len(sess.done),
            "completed": completed,
            "end": self.env.now,
        }
        # Drop the live entry so coordinator memory is bounded by
        # in-flight sessions, not the run's session count.
        del self._live[plan.session]
        self._instant(
            "session.end", session=plan.session, completed=completed,
        )

    def _instant(self, name: str, **fields) -> None:
        if self.obs is not None and self.obs.enabled:
            self.obs.tracer.instant(name, cat="session", track="sessions", **fields)

    def summary(self) -> dict:
        """The run's session rollup (stats + per-session rows)."""
        return {
            "stats": self.stats.as_dict(),
            "sessions": {
                str(k): dict(v) for k, v in sorted(self.per_session.items())
            },
            "live": len(self._live),
        }
