"""Scaling-efficient inference engine (the paper's §5 engine).

:class:`AegaeonEngine` binds one TP group of GPUs to a reusable engine
shell.  It owns:

* a self-managed VRAM weight buffer (bump allocation, §5.2);
* a unified GPU KV cache (slab allocation) behind a
  :class:`~repro.transfer.kv_transfer.KvTransferManager`;
* the quick/naive loaders and a prefetch stream, onto which a prefetch
  enqueues its chunk copies with a plain call (no process);
* the preemptive scale-down/scale-up state machine, recording a
  per-stage latency breakdown for every switch (Figures 7/8/15) in a
  columnar :class:`SwitchLog`.

Optimization flags in :class:`EngineConfig` gate each §5 technique so
the ablation benchmarks can flip them independently:

* ``reuse_components`` — §5.1: initialize Ray/NCCL, profiling, pinned
  KV pools, tokenizers once; otherwise every switch pays a fresh
  initialization.
* ``explicit_memory`` — §5.2: bump-allocated weights (no GC pass) and
  the pipelined quick loader; otherwise a GC pass plus the naive
  2.83 GB/s loader.
* ``fine_grained_sync`` — §5.3: per-request CUDA events; otherwise each
  switch drains the KV streams with blocking synchronization.
* ``prefetch`` — §5.2: load the next model on a separate stream during
  decoding, making ~half of all scale-ups near-instant (Figure 15).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Generator, Optional

import numpy as np

from ..hardware.gpu import Gpu
from ..hardware.node import Node
from ..memory.bump import BumpAllocation, BumpAllocator
from ..memory.model_cache import HostModelCache
from ..memory.slab import SlabAllocator
from ..models.catalog import ModelSpec
from ..models.latency import LatencyModel
from ..obs import NULL_OBS, Observability
from ..sim import Environment
from ..transfer.kv_transfer import KvTransferManager, MoveList
from ..transfer.loader import CheckpointFetchError, NaiveLoader, QuickLoader
from ..transfer.streams import CudaEvent, CudaStream
from .init_stages import DEFAULT_INIT_COSTS, SWITCH_STAGES, InitStageCosts

__all__ = ["EngineConfig", "ScaleRecord", "SwitchLog", "SwitchRecords", "AegaeonEngine"]

GiB = 1024**3
# Slab size of the GPU KV cache.
GPU_SLAB_BYTES = 256 * 1024**2
# Share of VRAM left to the tensor library's activations.
ACTIVATION_FRACTION = 0.10


@dataclass(frozen=True)
class EngineConfig:
    """Feature flags and sizing for one engine."""

    reuse_components: bool = True
    explicit_memory: bool = True
    fine_grained_sync: bool = True
    prefetch: bool = True
    tp: int = 1
    # Sized to hold a running shard plus a prefetched shard for most of
    # the paper's 6-14B model band, while leaving the KV cache enough
    # VRAM for full decode batches (the 13B/14B pair does not prefetch).
    weight_buffer_bytes: int = 44 * GiB

    @classmethod
    def unoptimized(cls, **overrides) -> "EngineConfig":
        """The T0 baseline: no §5 optimizations at all."""
        defaults = dict(
            reuse_components=False,
            explicit_memory=False,
            fine_grained_sync=False,
            prefetch=False,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(slots=True)
class ScaleRecord:
    """Timing of one preemptive scale operation.

    Engines log their switches in a :class:`SwitchLog` and build a
    record only when one is read.  A record holds its stage durations as
    one flat tuple, ``(name, seconds, name, seconds, ...)`` in execution
    order; :attr:`stages` views it as a mapping.
    """

    model_from: Optional[str]
    model_to: str
    started: float
    ended: float = 0.0
    prefetch_hit: bool = False
    stage_log: tuple = ()

    @property
    def stages(self) -> dict[str, float]:
        """Seconds per stage label, in execution order."""
        log = self.stage_log
        return dict(zip(log[::2], log[1::2]))

    @property
    def total(self) -> float:
        return self.ended - self.started


_STAGE_CODES = {name: code for code, name in enumerate(SWITCH_STAGES)}


class SwitchLog(Sequence):
    """An engine's model switches, one ``array`` column per field.

    An engine keeps every switch for its lifetime, so a switch is a few
    numbers appended to columns, not an object: ``started`` and
    ``ended``; ``model_from`` and ``model_to`` as codes into ``names``
    (code 0 is None, a boot's ``model_from``); ``prefetch_hit``; and its
    stages, ``stage_codes`` (indexes into ``SWITCH_STAGES``) and
    ``stage_seconds`` from ``stage_offsets[i]`` to ``stage_offsets[i +
    1]``.  Reading switch ``i`` builds a new :class:`ScaleRecord` with
    the same values, bit for bit.

    A switch logs its stages with :meth:`stage` as they end and closes
    with :meth:`close`; :meth:`open` drops the stages of a switch that
    raised or was interrupted before closing.
    """

    __slots__ = (
        "started",
        "ended",
        "model_from",
        "model_to",
        "prefetch_hit",
        "stage_codes",
        "stage_seconds",
        "stage_offsets",
        "names",
        "_codes",
    )

    def __init__(self) -> None:
        self.started = array("d")
        self.ended = array("d")
        self.model_from = array("H")
        self.model_to = array("H")
        self.prefetch_hit = array("B")
        self.stage_codes = array("B")
        self.stage_seconds = array("d")
        self.stage_offsets = array("I", (0,))
        self.names: list[Optional[str]] = [None]
        self._codes: dict[Optional[str], int] = {None: 0}

    # -- logging -------------------------------------------------------------
    def open(self) -> None:
        """Start a switch: drop any stage logged since the last close."""
        logged = self.stage_offsets[-1]
        del self.stage_codes[logged:], self.stage_seconds[logged:]

    def stage(self, name: str, seconds: float) -> None:
        """Log one stage of the open switch."""
        self.stage_codes.append(_STAGE_CODES[name])
        self.stage_seconds.append(seconds)

    def close(
        self,
        model_from: Optional[str],
        model_to: str,
        started: float,
        ended: float,
        prefetch_hit: bool,
    ) -> None:
        """Log the open switch, with the stages logged since it opened."""
        self.started.append(started)
        self.ended.append(ended)
        self.model_from.append(self._code(model_from))
        self.model_to.append(self._code(model_to))
        self.prefetch_hit.append(prefetch_hit)
        self.stage_offsets.append(len(self.stage_codes))

    def _code(self, name: Optional[str]) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.started)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = len(self.started)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("switch index out of range")
        offsets = self.stage_offsets
        codes = self.stage_codes
        seconds = self.stage_seconds
        stage_log = ()
        for k in range(offsets[index], offsets[index + 1]):
            stage_log += (SWITCH_STAGES[codes[k]], seconds[k])
        names = self.names
        return ScaleRecord(
            names[self.model_from[index]],
            names[self.model_to[index]],
            self.started[index],
            self.ended[index],
            self.prefetch_hit[index] == 1,
            stage_log,
        )


class SwitchRecords(Sequence):
    """A read-only view of switch logs in order, each frozen at the
    length it had when the view was made: a later switch is not in it.

    Records are built on read, as :class:`SwitchLog` builds them; a
    slice is a new list.  A view is a fixed-length sequence itself, so a
    view of views (a fleet's, over its systems') is frozen too.
    """

    __slots__ = ("_parts", "_len")

    def __init__(self, logs: Iterable[Sequence[ScaleRecord]] = ()) -> None:
        self._parts = [(log, len(log)) for log in logs]
        self._len = sum(count for _, count in self._parts)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("switch index out of range")
        for log, count in self._parts:
            if index < count:
                return log[index]
            index -= count
        raise AssertionError("parts hold fewer switches than the view")

    def __iter__(self):
        for log, count in self._parts:
            yield from islice(log, count)

    def __repr__(self) -> str:
        return f"<SwitchRecords of {self._len} switches>"


class AegaeonEngine:
    """One reusable engine shell on a TP group of GPUs."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        gpus: list[Gpu],
        model_cache: HostModelCache,
        cpu_kv_cache: SlabAllocator,
        move_list: Optional[MoveList] = None,
        config: EngineConfig = EngineConfig(),
        init_costs: InitStageCosts = DEFAULT_INIT_COSTS,
        name: str = "engine",
        pre_initialized: bool = False,
        obs: Observability = NULL_OBS,
    ):
        if len(gpus) != config.tp:
            raise ValueError(
                f"engine needs {config.tp} GPUs for TP={config.tp}, got {len(gpus)}"
            )
        self.env = env
        self.node = node
        self.gpus = gpus
        self.config = config
        self.init_costs = init_costs
        self.name = name
        # Shard traffic moves over each GPU's own link in parallel; the
        # group's wall time equals the lead GPU's, so the engine models
        # transfers on that link with per-shard byte counts.
        self.link = node.link(gpus[0])
        spec = gpus[0].spec
        kv_region = int(
            spec.vram_bytes * (1 - ACTIVATION_FRACTION)
            - config.weight_buffer_bytes
        )
        if kv_region <= 0:
            raise MemoryError(
                f"{name}: weight buffer leaves no VRAM for the KV cache"
            )
        self.weights = BumpAllocator(capacity=config.weight_buffer_bytes)
        self.gpu_kv_cache = SlabAllocator(
            kv_region, GPU_SLAB_BYTES, name=f"{name}.gpu_kv", obs=obs
        )
        self.kv = KvTransferManager(
            env,
            self.link,
            self.gpu_kv_cache,
            cpu_kv_cache,
            move_list=move_list,
            fine_grained=config.fine_grained_sync,
            name=name,
            obs=obs,
        )
        self.quick_loader = QuickLoader(env, self.link, model_cache)
        self.naive_loader = NaiveLoader(env, self.link)
        self.prefetch_stream = CudaStream(env, name=f"{name}.prefetch", obs=obs)
        self.current_model: Optional[ModelSpec] = None
        self._current_weights: Optional[BumpAllocation] = None
        self._prefetched: Optional[tuple[ModelSpec, BumpAllocation, CudaEvent]] = None
        self._latency_cache: dict[str, LatencyModel] = {}
        # A deployed instance boots its engine shell (Ray/NCCL, pinned
        # pools, tokenizers) before taking traffic; only engines without
        # component reuse re-pay that cost on every switch.
        self._fresh_boot_done = pre_initialized and config.reuse_components
        self.scale_history = SwitchLog()
        self.busy_time = 0.0
        self._perf_factor = 1.0
        self._tracer = obs.tracer
        scope = obs.scoped(name)
        self._switch_counter = scope.counter("switches")
        self._prefetch_hit_counter = scope.counter("prefetch_hits")
        self._switch_hist = scope.histogram("switch_latency_s")

    @property
    def perf_factor(self) -> float:
        """Chaos surface: compute-latency multiplier (thermal throttling /
        noisy neighbours).

        Scales prefill and decode-step times, so the schedulers see the
        slowdown through their estimates.  Setting it splits a decode
        run on this engine: its chunks after the one in flight would
        have been timed with the old factor.
        """
        return self._perf_factor

    @perf_factor.setter
    def perf_factor(self, factor: float) -> None:
        run = self.gpu_kv_cache._run
        if run is not None:
            run.split()
        self._perf_factor = factor

    # -- latency models -----------------------------------------------------
    def latency_model(self, spec: ModelSpec) -> LatencyModel:
        """Cached latency model for ``spec`` on this engine's hardware."""
        model = self._latency_cache.get(spec.name)
        if model is None:
            model = LatencyModel(spec, self.gpus[0].spec, tp=self.config.tp)
            self._latency_cache[spec.name] = model
        return model

    def shard_bytes(self, spec: ModelSpec) -> int:
        """Per-GPU weight bytes for ``spec`` on this engine."""
        return spec.weight_bytes // self.config.tp

    def base_switch_time(self, spec: ModelSpec) -> float:
        """Eq. 4 estimate of a switch, ignoring any in-flight prefetch.

        This is the ``c`` the decode scheduler amortizes over a round:
        quotas must be sized as if every switch pays the full load, or
        turns collapse below the time a prefetch needs to complete.
        """
        if self.config.explicit_memory:
            return self.quick_loader.load_time(self.shard_bytes(spec))
        return self.naive_loader.load_time(self.shard_bytes(spec))

    def estimate_switch_time(self, spec: ModelSpec) -> float:
        """Best-case estimate of switching to ``spec`` right now."""
        if self.current_model is not None and self.current_model.name == spec.name:
            return 0.0
        if self._prefetch_ready(spec):
            return 0.05
        return self.base_switch_time(spec)

    # -- prefetch ------------------------------------------------------------
    def prefetch(self, spec: ModelSpec) -> bool:
        """Begin loading ``spec`` behind the running model.

        Returns True if the prefetch was started (or is already in
        flight).  Requires the prefetch flag, spare weight-buffer space,
        and a host-cached checkpoint (remote fetches are not worth
        racing against a decode turn).  Starting one is a plain enqueue
        on the prefetch stream, with no process: the engine keeps the
        :class:`CudaEvent` that completes when the last chunk lands.
        """
        if not (self.config.prefetch and self.config.explicit_memory):
            return False
        if self.current_model is not None and spec.name == self.current_model.name:
            return False
        if self._prefetched is not None:
            return self._prefetched[0].name == spec.name
        nbytes = self.shard_bytes(spec)
        if self.weights.free < nbytes:
            return False
        if not self.quick_loader.model_cache.contains(spec.name):
            return False
        allocation = self.weights.alloc(nbytes, tag=f"prefetch:{spec.name}")
        done = self.quick_loader.prefetch(spec.name, nbytes, self.prefetch_stream)
        self._prefetched = (spec, allocation, done)
        return True

    def _prefetch_ready(self, spec: ModelSpec) -> bool:
        prefetched = self._prefetched
        if prefetched is None or prefetched[0].name != spec.name:
            return False
        return prefetched[2].query()

    def _drop_prefetch(self) -> None:
        if self._prefetched is not None:
            _, allocation, _ = self._prefetched
            if not allocation.freed:
                self.weights.retire(allocation)
            self._prefetched = None

    # -- scaling state machine -------------------------------------------------
    def scale_to(self, spec: ModelSpec) -> Generator:
        """Process: make ``spec`` the active model (Figures 8/10).

        Logs the switch in :attr:`scale_history` and returns its
        :class:`ScaleRecord` with the per-stage breakdown; a switch to the
        active model is a no-op, returned but not logged.  A failed
        weight load leaves no model active.
        """
        started = self.env.now
        model_from = self.current_model.name if self.current_model else None
        if model_from == spec.name:
            return ScaleRecord(model_from, spec.name, started, started)

        log = self.scale_history
        log.open()
        prefetch_hit = False
        tracer = self._tracer
        with tracer.span(
            "model_switch", cat="switch", track=self.name,
            model_from=model_from, model_to=spec.name,
        ) as switch_span:
            # Stage 1 — KV-out synchronization.  With fine-grained sync the
            # offloads proceed on their own stream and nothing blocks here.
            if not self.config.fine_grained_sync:
                start = self.env.now
                with tracer.span("kv_out_sync", cat="switch.stage", track=self.name):
                    yield from self.kv.drain()
                log.stage("kv_out_sync", self.env.now - start)

            # Stage 2 — VRAM reclamation.
            had_model = self.current_model is not None
            if had_model:
                if self.config.explicit_memory:
                    if self._current_weights is not None:
                        self.weights.retire(self._current_weights)
                        self._current_weights = None
                else:
                    start = self.env.now
                    with tracer.span("gc", cat="switch.stage", track=self.name):
                        yield self.env.timeout(self.init_costs.gc_pass)
                    log.stage("gc", self.env.now - start)
                    self.weights.reset(0)
                    self._current_weights = None

            # Stage 3 — engine (re)initialization.
            start = self.env.now
            if self.config.reuse_components and self._fresh_boot_done:
                with tracer.span("reinit", cat="switch.stage", track=self.name):
                    yield self.env.timeout(self.init_costs.reconfigure)
                log.stage("reinit", self.env.now - start)
            else:
                for stage, cost in [
                    ("dist_executor_init", self.init_costs.dist_executor(self.config.tp)),
                    ("profiling", self.init_costs.profiling),
                    ("kv_init", self.init_costs.kv_pin_init),
                    ("misc", self.init_costs.misc),
                ]:
                    with tracer.span(stage, cat="switch.stage", track=self.name):
                        yield self.env.timeout(cost)
                    log.stage(stage, cost)
                self._fresh_boot_done = True

            # Stage 4 — model weights.
            start = self.env.now
            nbytes = self.shard_bytes(spec)
            if (
                self._prefetched is not None
                and self._prefetched[0].name == spec.name
                and not self._prefetch_ready(spec)
            ):
                # The right model is mid-prefetch: finishing the in-flight
                # copy is cheaper than starting over.
                with tracer.span("prefetch_wait", cat="switch.stage", track=self.name):
                    yield self._prefetched[2].wait()
                log.stage("prefetch_wait", self.env.now - start)
            if self._prefetch_ready(spec):
                # Promote the prefetched weights with a cheap on-device copy
                # (Figure 9, step 3.b).
                _, allocation, _ = self._prefetched
                self._prefetched = None
                on_device_copy = nbytes / self.gpus[0].spec.effective_hbm_bandwidth
                with tracer.span("model_promote", cat="switch.stage", track=self.name):
                    yield self.env.timeout(on_device_copy)
                self.weights.compact_to_front(allocation)
                self._current_weights = allocation
                prefetch_hit = True
                log.stage("model_promote", self.env.now - start)
            else:
                # An in-flight prefetch of another model is abandoned.
                self._drop_prefetch()
                # With every extent retired, bump the pointer home so the
                # buffer does not creep upward across switches.
                if not self.weights.live_allocations:
                    self.weights.reset(0)
                with tracer.span("model_load", cat="switch.stage", track=self.name):
                    if self.config.explicit_memory:
                        allocation = self.weights.alloc(nbytes, tag=f"weights:{spec.name}")
                        try:
                            yield from self.quick_loader.load(spec.name, nbytes)
                        except CheckpointFetchError:
                            # Abandoned switch: give the extent back so
                            # repeated failures cannot bleed the buffer.
                            # The old model's weights went in stage 2,
                            # so no model is active any more.
                            self.weights.retire(allocation)
                            self.current_model = None
                            raise
                        self._current_weights = allocation
                    else:
                        self.weights.reset(0)
                        allocation = self.weights.alloc(nbytes, tag=f"weights:{spec.name}")
                        yield from self.naive_loader.load(spec.name, nbytes)
                        self._current_weights = allocation
                log.stage("model_load", self.env.now - start)

            switch_span.set(prefetch_hit=prefetch_hit)

        self.current_model = spec
        ended = self.env.now
        log.close(model_from, spec.name, started, ended, prefetch_hit)
        self._switch_counter.inc()
        self._switch_hist.observe(ended - started)
        if prefetch_hit:
            self._prefetch_hit_counter.inc()
        return log[-1]

    # -- execution ----------------------------------------------------------
    def prefill(self, spec: ModelSpec, input_lengths: list[int]) -> Generator:
        """Process: run one prefill batch; returns its duration."""
        self._require_active(spec)
        duration = self.latency_model(spec).prefill_time(input_lengths) * self.perf_factor
        # The disabled-tracer path must stay allocation-free, so the span
        # (and its kwargs dict) is only built when recording.
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "prefill", cat="exec", track=self.name,
                model=spec.name, batch=len(input_lengths),
            ):
                yield self.env.timeout(duration)
        else:
            yield self.env.timeout(duration)
        self.busy_time += duration
        return duration

    def decode_step_time(self, spec: ModelSpec, batch: int, context: int) -> float:
        """Predicted duration of one decode step (Eq. 6)."""
        return self.latency_model(spec).decode_step_time(batch, context) * self._perf_factor

    # The two batch methods are loops over the scalar predictions; no
    # simulation path calls them, they stay as simbench span targets.
    def decode_time_batch(self, spec: ModelSpec, batch_sizes, context_tokens):
        """``decode_step_time`` for each ``(batch size, context)`` pair."""
        pairs = zip(batch_sizes, context_tokens)
        times = [self.decode_step_time(spec, b, c) for b, c in pairs]
        return np.array(times, dtype=float)

    def prefill_time_batch(self, spec: ModelSpec, input_lengths):
        """Eq. 5 for each prompt as its own batch, with the perf factor."""
        model = self.latency_model(spec)
        times = [model.prefill_time_single(n) * self.perf_factor for n in input_lengths]
        return np.array(times, dtype=float)

    def decode_for(self, spec: ModelSpec, duration: float) -> Generator:
        """Process: occupy the default stream decoding for ``duration``."""
        self._require_active(spec)
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("decode", cat="exec", track=self.name, model=spec.name):
                yield self.env.timeout(duration)
        else:
            yield self.env.timeout(duration)
        self.busy_time += duration

    def _require_active(self, spec: ModelSpec) -> None:
        if self.current_model is None or self.current_model.name != spec.name:
            raise RuntimeError(
                f"{self.name}: {spec.name} is not the active model "
                f"(active: {self.current_model.name if self.current_model else None})"
            )

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the default stream ran token generation."""
        elapsed = self.env.now if elapsed is None else elapsed
        return 0.0 if elapsed <= 0 else min(1.0, self.busy_time / elapsed)
