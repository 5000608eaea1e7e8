"""The columnar switch log: ``AegaeonEngine.scale_history`` and the
frozen views of it that results hold.

A :class:`~repro.engine.engine.SwitchLog` keeps each switch as a few
numbers in ``array`` columns and builds a :class:`ScaleRecord` on every
read, so these tests pin that a record reads back with the fields, stage
order and float bits it was logged with, that a result's
``scale_records`` is frozen at collection, and that a logged switch
costs a few dozen bytes, not an object.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AegaeonConfig, AegaeonServer
from repro.engine import SWITCH_STAGES, ScaleRecord, SwitchLog, SwitchRecords
from repro.hardware import Cluster, H800
from repro.models import get_model, market_mix
from repro.sim import Environment
from repro.workload import materialize_trace, sharegpt

from .test_engine_core import make_engine, run_scale

NAMES = ("Qwen-7B", "Yi-6B", "Llama-13B", "m#3")

_seconds = st.floats(allow_nan=False)
_records = st.builds(
    ScaleRecord,
    model_from=st.sampled_from((None,) + NAMES),
    model_to=st.sampled_from(NAMES),
    started=_seconds,
    ended=_seconds,
    prefetch_hit=st.booleans(),
    stage_log=st.lists(st.tuples(st.sampled_from(SWITCH_STAGES), _seconds), max_size=12).map(
        lambda stages: tuple(value for stage in stages for value in stage)
    ),
)


def _log(log: SwitchLog, record: ScaleRecord) -> None:
    """Log ``record`` as ``scale_to`` logs a switch."""
    log.open()
    stages = record.stage_log
    for k in range(0, len(stages), 2):
        log.stage(stages[k], stages[k + 1])
    log.close(
        record.model_from, record.model_to, record.started, record.ended,
        record.prefetch_hit,
    )


def _bits(record: ScaleRecord) -> tuple:
    """Every field of ``record``, the floats by ``float.hex``."""
    log = record.stage_log
    return (
        record.model_from,
        record.model_to,
        record.started.hex(),
        record.ended.hex(),
        record.prefetch_hit,
        tuple(v.hex() if isinstance(v, float) else v for v in log),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_records, max_size=40))
    def test_records_read_back_bit_for_bit(self, records):
        log = SwitchLog()
        for record in records:
            _log(log, record)
        assert len(log) == len(records)
        assert [_bits(r) for r in log] == [_bits(r) for r in records]
        for k in range(1, len(records) + 1):
            assert _bits(log[-k]) == _bits(records[-k])
        assert [_bits(r) for r in log[1::2]] == [_bits(r) for r in records[1::2]]
        for record in log:
            assert type(record.prefetch_hit) is bool
            assert type(record.started) is float

    def test_out_of_range_index_raises(self):
        log = SwitchLog()
        _log(log, ScaleRecord(None, "a", 0.0, 1.0))
        for records in (log, SwitchRecords([log])):
            for index in (1, -2):
                with pytest.raises(IndexError):
                    records[index]

    def test_open_drops_the_stages_of_an_unclosed_switch(self):
        log = SwitchLog()
        log.open()
        log.stage("reinit", 0.15)  # a switch that raised before closing
        log.open()
        log.stage("model_load", 0.5)
        log.close("a", "b", 1.0, 1.5, False)
        assert log[0].stage_log == ("model_load", 0.5)
        assert log[-1].stages == {"model_load": 0.5}


class TestScaleTo:
    def test_returns_the_logged_record(self):
        env = Environment()
        engine = make_engine(env, warm_models=["Qwen-7B", "Yi-6B"])
        boot = run_scale(env, engine, "Qwen-7B")
        assert boot == engine.scale_history[-1] and boot.model_from is None
        assert engine.prefetch(get_model("Yi-6B"))
        env.run(until=env.now + 5.0)
        hit = run_scale(env, engine, "Yi-6B")
        assert hit == engine.scale_history[-1] and hit.prefetch_hit
        back = run_scale(env, engine, "Qwen-7B")
        assert back == engine.scale_history[-1]
        assert list(engine.scale_history) == [boot, hit, back]
        noop = run_scale(env, engine, "Qwen-7B")
        assert noop == ScaleRecord("Qwen-7B", "Qwen-7B", env.now, env.now)
        assert len(engine.scale_history) == 3  # a no-op is not logged


class TestFrozenViews:
    def test_view_does_not_see_a_later_switch(self):
        log = SwitchLog()
        _log(log, ScaleRecord(None, "a", 0.0, 1.0))
        view = SwitchRecords([log])
        _log(log, ScaleRecord("a", "b", 2.0, 2.5))
        assert len(view) == 1 and list(view) == [log[0]]
        nested = SwitchRecords([view, log])  # a fleet's view of views
        _log(log, ScaleRecord("b", "a", 3.0, 3.5))
        assert len(nested) == 3 and list(nested) == [log[0], log[0], log[1]]
        assert nested[-1] == log[1]

    def test_result_is_frozen_at_collection(self):
        env = Environment()
        server = AegaeonServer(
            env,
            Cluster.homogeneous(env, H800, 1, 3),
            AegaeonConfig(prefill_instances=1, decode_instances=2),
        )
        models = market_mix(3)
        trace = materialize_trace(models, [0.1] * 3, sharegpt(), horizon=30.0, seed=3)
        result = server.serve(trace)
        collected = list(result.scale_records)
        assert collected and len(result.scale_records) == len(collected)
        assert collected == [
            record for engine in server.engines() for record in engine.scale_history
        ]
        engine = server.decode_instances[0].engine
        other = next(m for m in models if m.name != engine.current_model.name)
        before = len(engine.scale_history)
        env.run(until=env.process(engine.scale_to(other)))
        assert len(engine.scale_history) == before + 1
        assert list(result.scale_records) == collected
        assert result.scale_records[-1] == collected[-1]


class TestFootprint:
    def test_a_logged_switch_retains_under_64_bytes(self):
        # The common switch: a reinit and a weight load, between a few
        # models.  Columns grow by ~1/16, so this is the steady cost.
        switches = 10_000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            log = SwitchLog()
            t = 0.0
            for i in range(switches):
                log.open()
                log.stage("reinit", 0.15)
                log.stage("model_load", 0.25 + i * 1e-6)
                log.close(NAMES[i % 4], NAMES[(i + 1) % 4], t, t + 0.4, bool(i % 2))
                t += 1.0
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == switches
        assert (after - before) / switches < 64
