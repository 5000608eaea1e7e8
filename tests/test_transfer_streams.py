"""Tests for simulated CUDA streams and events (§5.3, Table 2)."""

import pytest
from hypothesis import given, settings

from repro.hardware import Link, pcie_pair
from repro.sim import Environment
from repro.transfer import CudaEvent, CudaStream, streams, synchronize_all

from . import reference_stream
from .reference_kernel import ReferenceEnvironment
from .strategies import stream_programs


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def link(env):
    return Link(env, bandwidth=1e9, latency=0.0)


class TestStreamOrdering:
    def test_ops_execute_in_order(self, env, link):
        stream = CudaStream(env)
        finish_times = []
        stream.copy(link, int(1e9), on_done=lambda: finish_times.append(env.now))
        stream.compute(2.0, on_done=lambda: finish_times.append(env.now))
        env.run(until=10.0)
        assert finish_times == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_separate_streams_overlap_compute(self, env):
        s1, s2 = CudaStream(env), CudaStream(env)
        done = []
        s1.compute(2.0, on_done=lambda: done.append(("s1", env.now)))
        s2.compute(2.0, on_done=lambda: done.append(("s2", env.now)))
        env.run(until=5.0)
        assert [t for _, t in done] == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_same_link_copies_serialize_across_streams(self, env, link):
        s1, s2 = CudaStream(env), CudaStream(env)
        done = []
        s1.copy(link, int(1e9), on_done=lambda: done.append(env.now))
        s2.copy(link, int(1e9), on_done=lambda: done.append(env.now))
        env.run(until=5.0)
        assert sorted(done) == [pytest.approx(1.0), pytest.approx(2.0)]


class TestEvents:
    def test_record_and_query(self, env, link):
        stream = CudaStream(env)
        event = CudaEvent(env, name="marker")
        stream.copy(link, int(1e9))
        stream.record(event)
        env.run(until=0.5)
        assert not event.query()
        env.run(until=2.0)
        assert event.query()
        assert event.completed_at == pytest.approx(1.0)

    def test_unrecorded_event_reports_complete(self, env):
        assert CudaEvent(env).query()

    def test_stream_wait_event(self, env, link):
        producer = CudaStream(env)
        consumer = CudaStream(env)
        event = CudaEvent(env)
        producer.copy(link, int(2e9))  # finishes at t=2
        producer.record(event)
        consumer.wait_event(event)
        done = []
        consumer.compute(1.0, on_done=lambda: done.append(env.now))
        env.run(until=10.0)
        assert done == [pytest.approx(3.0)]

    def test_host_wait(self, env, link):
        stream = CudaStream(env)
        event = CudaEvent(env)
        stream.copy(link, int(1e9))
        stream.record(event)
        log = []

        def host():
            yield event.wait()
            log.append(env.now)

        env.process(host())
        env.run(until=5.0)
        assert log == [pytest.approx(1.0)]

    def test_wait_on_completed_event_is_immediate(self, env):
        event = CudaEvent(env)
        log = []

        def host():
            yield event.wait()
            log.append(env.now)

        env.process(host())
        env.run(until=1.0)
        assert log == [0.0]


class TestSynchronize:
    def test_stream_synchronize(self, env, link):
        stream = CudaStream(env)
        stream.copy(link, int(3e9))
        log = []

        def host():
            yield stream.synchronize()
            log.append(env.now)

        env.process(host())
        env.run(until=10.0)
        assert log == [pytest.approx(3.0)]

    def test_synchronize_all_waits_for_slowest(self, env):
        duplex = pcie_pair(env, bandwidth=1e9)
        s1, s2 = CudaStream(env), CudaStream(env)
        s1.copy(duplex.h2d, int(1e9))
        s2.copy(duplex.d2h, int(4e9))
        log = []

        def host():
            yield synchronize_all(env, [s1, s2])
            log.append(env.now)

        env.process(host())
        env.run(until=10.0)
        assert log == [pytest.approx(4.0, rel=1e-3)]

    def test_pending_ops_counter(self, env, link):
        stream = CudaStream(env)
        stream.copy(link, int(1e9))
        stream.copy(link, int(1e9))
        assert stream.pending_ops == 2
        env.run(until=5.0)
        assert stream.pending_ops == 0
        assert stream.ops_executed == 2


class TestMalformedOps:
    """A malformed op raises in the caller's frame, before it is queued,
    and the lane goes on running what comes after."""

    @pytest.mark.parametrize("enqueue", [
        lambda stream, link: stream.copy(link, -5),
        lambda stream, link: stream.compute(-1.0),
        lambda stream, link: stream.load(link, 1024, 0, 0.5),
        lambda stream, link: stream.load(link, -1, 2, 0.5),
        lambda stream, link: stream.load(link, 1024, 2, -0.5),
    ], ids=["copy-bytes", "compute-duration", "load-chunks", "load-bytes", "load-stall"])
    def test_raises_at_the_call_and_the_lane_lives(self, env, link, enqueue):
        stream = CudaStream(env)
        stream.compute(1.0)
        with pytest.raises(ValueError):
            enqueue(stream, link)
        assert stream.pending_ops == 1
        done = []
        stream.compute(2.0, on_done=lambda: done.append(env.now))
        env.run()
        assert done == [3.0]
        assert stream.pending_ops == 0 and stream.ops_executed == 2


class TestLazyCompletion:
    """``CudaEvent`` schedules its completion only once someone waits."""

    def _recorded(self, env, link):
        stream = CudaStream(env)
        event = CudaEvent(env)
        stream.copy(link, int(1e9))  # finishes at t=1
        stream.record(event)
        return event

    def test_wait_before_completion_resumes_at_completion(self, env, link):
        event = self._recorded(env, link)
        log = []

        def host():
            yield event.wait()
            log.append(env.now)

        env.process(host())
        env.run()
        assert event.completed_at == pytest.approx(1.0)
        assert log == [event.completed_at]

    def test_two_waiters_share_one_completion(self, env, link):
        event = self._recorded(env, link)
        assert event.wait() is event.wait()
        log = []

        def host(label):
            yield event.wait()
            log.append((label, env.now))

        env.process(host("first"))
        env.process(host("second"))
        env.run()
        assert log == [("first", pytest.approx(1.0)), ("second", pytest.approx(1.0))]

    def test_wait_after_completion_fires_immediately(self, env, link):
        event = self._recorded(env, link)
        env.run(until=2.0)
        assert event.query()
        done = event.wait()
        assert done.triggered
        log = []

        def host():
            yield done
            log.append(env.now)

        env.process(host())
        env.run(until=3.0)
        assert log == [2.0]

    def test_unwaited_record_schedules_no_completion(self, link):
        def steps(record: bool, wait: bool) -> tuple[int, int]:
            env = Environment()
            stream = CudaStream(env)
            stream.compute(1.0)
            if record:
                event = stream.record(CudaEvent(env))
                if wait:
                    event.wait()
            env.run()
            return env.steps_executed, env.steps_inlined

        # The compute dispatches inline from the worker's first turn.
        assert steps(record=False, wait=False) == (2, 1)
        # The record queued behind it completes inline when the compute
        # finishes with nothing else due: it costs no step at all.
        assert steps(record=True, wait=False) == (2, 2)
        # Only a requested wait adds a step, the completion event.
        assert steps(record=True, wait=True) == (3, 2)


RECORDS = 5_000  # well past the default recursion limit


class TestInlineDispatch:
    """Queued ops dispatch directly while nothing else is due at ``now``."""

    @pytest.mark.parametrize(
        "kernel, steps, inlined",
        [
            # Two steps (the worker's init and the compute timeout):
            # the compute runs inline from init, the records from the
            # timeout.
            (Environment, 2, RECORDS + 1),
            # The reference kernel gives every op its dispatch event.
            (ReferenceEnvironment, 2 + RECORDS + 1, 0),
        ],
    )
    def test_record_run_drains_in_a_loop(self, kernel, steps, inlined):
        env = kernel()
        stream = CudaStream(env)
        stream.compute(1.0)
        events = [stream.record(CudaEvent(env)) for _ in range(RECORDS)]
        env.run()
        assert all(e.completed_at == 1.0 for e in events)
        assert (stream.ops_executed, stream.pending_ops) == (RECORDS + 1, 0)
        assert (env.steps_executed, env.steps_inlined) == (steps, inlined)

    def test_op_due_behind_other_work_keeps_its_event(self, env):
        stream = CudaStream(env)
        log = []

        def host():
            yield env.timeout(0)
            log.append(("host", env.now))

        stream.compute(0.0, on_done=lambda: env.process(host()))
        stream.compute(0.0, on_done=lambda: log.append(("second", env.now)))
        env.run()
        # The host's init was due when the first compute finished, so
        # the second compute waited behind it for its dispatch event.
        assert log == [("host", 0.0), ("second", 0.0)]
        assert env.steps_inlined == 1

    @pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
    def test_wake_with_callbacks_behind_keeps_its_dispatch_event(self, kernel):
        env = kernel()
        lane, producer = CudaStream(env), CudaStream(env)
        marker = CudaEvent(env)
        log = []
        # The lane waits on the marker first (its worker's _waiter slot);
        # the host attaches behind it, in the completion's callbacks.
        lane.wait_event(marker)
        lane.compute(0.5, on_done=lambda: log.append(("lane", env.now)))

        def host():
            yield env.timeout(0.25)
            yield marker.wait()
            yield env.timeout(0.5)
            log.append(("host", env.now))

        env.process(host())
        producer.compute(1.0)
        producer.record(marker)
        env.run()
        # The host's callback runs after the lane's resume in the same
        # step, so its timeout is scheduled before the lane's compute.
        assert log == [("host", 1.5), ("lane", 1.5)]

    @pytest.mark.parametrize(
        "kernel, steps, inlined",
        [
            # Inline: the producer's record, and the lane's compute on
            # the marker's completion (the lane is its only waiter).
            (Environment, 7, 2),
            (ReferenceEnvironment, 9, 0),
        ],
    )
    def test_sole_waiter_wake_dispatches_inline(self, kernel, steps, inlined):
        env = kernel()
        lane, producer = CudaStream(env), CudaStream(env)
        marker = CudaEvent(env)
        log = []
        lane.wait_event(marker)
        lane.compute(0.5, on_done=lambda: log.append(("lane", env.now)))
        producer.compute(1.0)
        producer.record(marker)
        env.run()
        assert log == [("lane", 1.5)]
        assert (env.steps_executed, env.steps_inlined) == (steps, inlined)


def _run_program(impl, program, n_streams=3, n_events=3):
    """Drive ``program`` through one stream implementation.

    Returns the environment, the streams, the events and the log of
    every ``on_done`` callback, host-wait resume, query and per-op
    ``pending_ops`` snapshot, each with its simulated time.
    """
    quarter = 0.25
    env = Environment()
    duplex = pcie_pair(env, bandwidth=1e9)
    links = (duplex.h2d, duplex.d2h)
    for link in links:
        link.latency = 0.0  # keep copy times on the quarter-second grid
    lanes = [impl.CudaStream(env, name=f"s{i}") for i in range(n_streams)]
    events = [impl.CudaEvent(env, name=f"e{i}") for i in range(n_events)]
    log = []

    def resume(label, waitable):
        yield waitable
        log.append(("resume", label, env.now))

    def on_done(label, then):
        def callback():
            log.append(("done", label, env.now))
            if then >= 0:
                lanes[then].compute(
                    quarter, on_done=lambda: log.append(("chained", label, env.now))
                )
        return callback

    def driver():
        for index, op in enumerate(program):
            kind = op[0]
            if kind == "copy":
                _, lane, direction, units, then = op
                lanes[lane].copy(
                    links[direction], int(units * quarter * 1e9), on_done(index, then)
                )
            elif kind == "compute":
                _, lane, units, then = op
                lanes[lane].compute(units * quarter, on_done(index, then))
            elif kind == "record":
                lanes[op[1]].record(events[op[2]])
            elif kind == "wait_event":
                lanes[op[1]].wait_event(events[op[2]])
            elif kind == "sync":
                env.process(resume(index, lanes[op[1]].synchronize()))
            elif kind == "sync_all":
                chosen = [lanes[i] for i in op[1]]
                env.process(resume(index, impl.synchronize_all(env, chosen)))
            elif kind == "host_wait":
                env.process(resume(index, events[op[1]].wait()))
            elif kind == "query":
                log.append(("query", index, env.now, events[op[1]].query()))
            else:
                yield env.timeout(op[1] * quarter)
            log.append(("pending", index, tuple(lane.pending_ops for lane in lanes)))

    env.process(driver())
    env.run()
    # Host waits issued after everything drained fire immediately.
    for e, event in enumerate(events):
        env.process(resume(("after", e), event.wait()))
    env.run()
    log.extend(("event", e, event.completed_at) for e, event in enumerate(events))
    return env, lanes, events, log


class TestReferenceDifferential:
    """The deque lane against the Store-backed oracle in
    ``reference_stream``: same program, same observable log."""

    @settings(max_examples=200, deadline=None)
    @given(program=stream_programs())
    def test_lane_matches_store_backed_reference(self, program):
        ref_env, ref_lanes, _, ref_log = _run_program(reference_stream, program)
        env, lanes, events, log = _run_program(streams, program)
        assert log == ref_log
        assert [(s.ops_executed, s.pending_ops) for s in lanes] == [
            (s.ops_executed, s.pending_ops) for s in ref_lanes
        ]
        assert env.now == ref_env.now
        # The only kernel steps saved are the events nobody waits on:
        # one put per enqueued op, one completion per event completed
        # before anyone waited, the reference's ``_idle`` event per
        # stream, and one dispatch event per op dispatched inline.
        enqueued = sum(s.ops_executed + s.pending_ops for s in lanes)
        unwaited = sum(
            1 for e in events if e.completed_at is not None and e._completion is None
        )
        assert ref_env.steps_executed - env.steps_executed == (
            enqueued + unwaited + len(lanes) + env.steps_inlined
        )
