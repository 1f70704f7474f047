"""Sharded trace execution for tera-scale runs.

The parallel substrate (PR 1) fans *whole* (benchmark, mode) simulations over
worker processes, which caps a practical run at a few hundred thousand
accesses per pair: one pair is always one serial replay.  This module splits
a captured :class:`~repro.workloads.base.Trace` into contiguous shards and
executes each pair as a *chain* of shard windows, so 10M+-access traces
spread across the pool instead of monopolising one worker.

Exactness is the design center.  The default path is **checkpointed
handoff**: shard k starts from the serialized :class:`EngineState` produced
by shard k-1's tail, so by induction the state after shard k equals the
serial engine's state after the same prefix -- the merged result is
*bit-identical* to an unsharded run (the accumulators travel inside the
checkpoint; nothing is ever re-summed, so even float non-associativity
cannot introduce drift).  Chains are sequential internally but independent
of each other, and :func:`repro.sim.parallel.pipelined_map` keeps every
pair's current shard on a worker simultaneously (pipelined handoff).

Behind the explicit ``warmup`` knob (``repro bench --shard-warmup W``) shards
instead start from a *warm-up replay* of the ``W`` accesses preceding their
window and run fully independently -- one flat ``parallel_map`` task list,
maximum fan-out, no handoff serialization.  That path is approximate (cold
MAC/stealth/tree caches are only warmed, not reproduced) and is gated by the
declared :data:`WARMUP_DRIFT_GATE`: the differential suite pins the merged
execution time within the gate of the serial engine.

**Exactness contract.**  Checkpointed sharding is an execution strategy, not
a model change: for every registered mode, at every shard width, the merged
result is *bit-identical* -- every counter, floats included -- to the serial
unsharded engine (pinned by ``tests/sim/test_sharding.py`` and the committed
golden fixtures).  Because the results are identical, sharded and unsharded
runs **share persistent-store keys**: the shard width never appears in a
result's key, a cached unsharded suite serves a sharded request and vice
versa, and ``repro reproduce-all`` provenance stamps are
strategy-independent.  Only the approximate warm-up path is keyed
separately, precisely because it breaks this identity.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.sim.configs import (
    EVALUATED_MODES,
    ModeLike,
    ModeParameters,
    mode_parameters,
)
from repro.sim.engine import EngineOptions, EngineState, SimulationEngine
from repro.sim.faults import FailureManifest, SupervisionPolicy, TaskFailure
from repro.sim.parallel import (
    merge_suite_results,
    parallel_map,
    pipelined_map,
    predistill_suite,
    resolve_supervision,
    suite_pairs,
)
from repro.sim.results import (
    LatencyBreakdown,
    SimulationResult,
    SuiteResults,
    TrafficBreakdown,
)
from repro.sim.store import ResultStore, content_key, default_store
from repro.workloads.base import Trace, calibrated_instruction_count

#: Declared accuracy contract of the warm-up path: the merged execution time
#: of a warm-up sharded run stays within this relative drift of the serial
#: engine (pinned by ``tests/sim/test_sharding.py``).  The checkpointed
#: default path needs no gate -- it is bit-identical by construction.
WARMUP_DRIFT_GATE = 0.05


@dataclass(frozen=True)
class ShardSpec:
    """How to shard a run: the shard width and the handoff discipline.

    ``warmup is None`` selects the exact checkpointed handoff (the default);
    a non-negative ``warmup`` selects the approximate independent-shard path
    where each shard warms its state on the ``warmup`` accesses preceding its
    window.
    """

    shard_size: int
    warmup: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")

    @property
    def exact(self) -> bool:
        return self.warmup is None

    def key_fields(self) -> Optional[Dict[str, int]]:
        """The store-key contribution of this spec.

        The exact path returns ``None``: its results are bit-identical to the
        unsharded engine, so sharded and unsharded runs *share* persistent
        store entries (cached unsharded results stay valid).  Only the
        approximate warm-up path changes the numbers and therefore the key.
        """
        if self.exact:
            return None
        return {"shard_size": self.shard_size, "warmup": self.warmup}


def shard_bounds(total: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous half-open windows covering ``[0, total)``.

    The final window absorbs the remainder; ``shard_size >= total`` yields a
    single full-length window.  Mirrors :meth:`Trace.shards`.
    """
    if total <= 0:
        raise ValueError(f"total access count must be positive, got {total}")
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        (start, min(start + shard_size, total)) for start in range(0, total, shard_size)
    ]


# ---------------------------------------------------------------------------
# Worker bodies
# ---------------------------------------------------------------------------

#: One shard of one (benchmark, mode) pair: the suite task fields plus the
#: shard window and (for the warm-up path) the warm-up length.  The resolved
#: ModeParameters travel in the task for the same reason they do in
#: ``SuiteTask``: runtime registrations must reach spawn-context workers.
#: The trailing flags select miss-event distillation for the exact path
#: (each window replays from the shared distilled event stream) and the
#: vectorized batch replay on top of it (``repro.sim.replaycore``).
ShardTask = Tuple[
    str,  # benchmark name
    ModeParameters,
    float,  # scale
    int,  # num_accesses (full run length)
    int,  # seed
    Optional[SystemConfig],
    Optional[EngineOptions],
    int,  # window start
    int,  # window stop
    Optional[int],  # warmup (None on the exact path)
    bool,  # distill (exact path only)
    bool,  # vector (exact distilled path only)
]


def _task_engine_and_trace(task: ShardTask) -> Tuple[SimulationEngine, Trace]:
    """Worker-side setup shared by both shard disciplines.

    Workers re-derive the full trace through the per-process memo
    (``capture_trace``), so every shard of a benchmark landing on the same
    worker shares one trace generation; only the checkpoint travels.
    """
    from repro.workloads.registry import capture_trace

    name, params, scale, num_accesses, seed, config, options = task[:7]
    trace = capture_trace(name, scale=scale, seed=seed, num_accesses=num_accesses)
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    return engine, trace


def run_shard_step(task: ShardTask, carry: Optional[bytes]) -> Any:
    """Exact-path worker: advance one pair's chain over one shard window.

    ``carry`` is the previous shard's serialized checkpoint (``None`` for
    shard 0, which begins from the cold state).  Intermediate shards return
    the next checkpoint; the final shard returns the finished
    :class:`SimulationResult` -- exactly what the serial engine would have
    produced, because the state never diverged from it.

    With the task's distill flag set, each window replays from the
    benchmark's shared :class:`~repro.sim.distill.MissEventStream` (one
    hierarchy pre-pass per worker per benchmark, all modes and all shards of
    a chain reuse it) instead of pushing the window's accesses through the
    hierarchy again; modes that cannot be event-driven fall back to the full
    replay.  Both paths produce the identical checkpoint sequence.

    The vector flag further batches each distilled window through the numpy
    kernels.  The flag is constant across a chain, so a chain is replayed
    with one strategy end to end -- the direction the batch path supports
    (a vectorized checkpoint leaves component caches untouched and must not
    be resumed by the scalar replay; see ``repro.sim.replaycore``).
    """
    from repro.sim import replaycore
    from repro.sim.distill import distilled_events

    name, params, scale, num_accesses, seed, config, options = task[:7]
    start, stop, distill, vector = task[7], task[8], task[10], task[11]
    engine = SimulationEngine(params, config=config, options=options, seed=seed)

    events = None
    if distill:
        events = distilled_events(name, scale, seed, num_accesses, config)
    if carry is None:
        if events is not None:
            state = engine.begin(events, num_accesses)
        else:
            _, trace = _task_engine_and_trace(task)
            state = engine.begin(trace, num_accesses)
    else:
        state = EngineState.deserialize(carry)
    if state.position != start:
        raise ValueError(
            f"checkpoint resumes at access {state.position}, "
            f"but this shard's window starts at {start}"
        )
    if events is not None and engine.distillable(state.components):
        if vector and replaycore.vectorizable(state.components):
            replaycore.BatchReplayEngine(engine, events).replay(state, stop=stop)
        else:
            engine.replay_events(state, events, stop=stop)
        subject: Any = events
    else:
        _, trace = _task_engine_and_trace(task)
        engine.replay(state, trace, stop=stop)
        subject = trace
    if stop >= num_accesses:
        return engine.finish(state, subject)
    return state.serialize()


#: One shard of one (benchmark, mode) pair on the *streamed* path: the suite
#: task fields plus the shard window and the event-slice window width.  The
#: payload is deliberately tiny -- a worker derives the store keys of the
#: slices its window overlaps from (identity, window width) and fetches them
#: from the persistent store; no trace and no full event stream ever crosses
#: a process boundary or gets materialised.
StreamShardTask = Tuple[
    str,  # benchmark name
    ModeParameters,
    float,  # scale
    int,  # num_accesses (full run length)
    int,  # seed
    Optional[SystemConfig],
    Optional[EngineOptions],
    int,  # window start
    int,  # window stop
    int,  # event-slice window width
]


def run_stream_shard_step(task: StreamShardTask, carry: Optional[bytes]) -> Any:
    """Streamed-path worker: advance one pair's chain over one shard window.

    Mirrors :func:`run_shard_step`'s exact checkpoint-handoff contract, but
    the replay consumes windowed event *slices* fetched from the persistent
    store by :func:`~repro.sim.distill.events_slice_key` instead of a
    captured trace or a full-run stream: peak memory is bounded by one slice
    (plus the checkpoint), independent of the run length.  A worker whose
    store is missing a slice self-heals by regenerating the run's slices
    (bounded-memory, via :func:`~repro.sim.distill.stream_event_slices`).
    Slices are read with ``promote=False`` so the store's memory layer never
    re-accumulates the run.  Bit-identical to the serial engine by the same
    induction as the captured path; the vectorized batch replay does not
    apply here (it is built around one full-run stream), so streamed replay
    is always scalar.
    """
    from repro.sim.distill import (
        MissEventStream,
        events_slice_key,
        stream_event_slices,
    )
    from repro.sim.store import default_store

    name, params, scale, num_accesses, seed, config, options, start, stop, window = task
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    store = default_store()

    def load_slice(position: int) -> MissEventStream:
        index = position // window
        key = events_slice_key(name, scale, seed, num_accesses, window, index, config)
        events = store.get(key, decoder=MissEventStream.from_payload, promote=False)
        if events is None:
            stream_event_slices(name, scale, seed, num_accesses, window, config, store)
            events = store.get(key, decoder=MissEventStream.from_payload, promote=False)
        if events is None:
            raise RuntimeError(
                f"event slice {index} of {name!r} (window {window}) is "
                "missing from the store and could not be regenerated"
            )
        return events

    if carry is None:
        state: Optional[EngineState] = None
    else:
        state = EngineState.deserialize(carry)
    meta: Optional[MissEventStream] = None
    position = start
    while position < stop:
        events = load_slice(position)
        meta = events.run_meta(num_accesses)
        if state is None:
            state = engine.begin(meta, num_accesses)
            if not engine.distillable(state.components):
                raise ValueError(
                    f"mode {params.label!r} has components that cannot be "
                    "event-driven; streamed execution requires distillable "
                    "components (declare access_period or use the captured "
                    "path)"
                )
        if state.position != position:
            raise ValueError(
                f"checkpoint resumes at access {state.position}, "
                f"but this shard's window starts at {position}"
            )
        engine.replay_events(state, events, stop=min(stop, events.stop_index))
        position = state.position
    assert state is not None and meta is not None
    if stop >= num_accesses:
        return engine.finish(state, meta)
    return state.serialize()


@dataclass
class ShardCounters:
    """One warm-up shard's counter deltas over its (post-warm-up) window."""

    llc_misses: int
    llc_read_misses: int
    writebacks: int
    traffic: TrafficBreakdown
    latency: LatencyBreakdown
    llc_mpki: float
    instructions_per_access: float
    telemetry: Dict[str, Any] = field(default_factory=dict)


def _warm_shard_counters(
    engine: SimulationEngine,
    trace: Trace,
    num_accesses: int,
    start: int,
    stop: int,
    warmup: int,
) -> ShardCounters:
    """Simulate one independent shard window and return its counter deltas.

    The engine state is warmed by replaying the ``warmup`` accesses that
    precede the window (global indices preserved, so timeline sampling points
    stay aligned), then the window itself is replayed and only the deltas
    over it are kept.
    """
    state = engine.begin(trace, num_accesses)
    state.position = max(0, start - warmup)
    engine.replay(state, trace, stop=start)

    traffic_before = replace(state.ctx.traffic)
    latency_before = replace(state.ctx.latency)
    misses_before = state.hierarchy.l3.stats.misses
    read_misses_before = state.llc_read_misses
    writebacks_before = state.writebacks
    warm_telemetry: Dict[str, Any] = {}
    for component in state.components:
        warm_telemetry.update(component.telemetry())
    # Telemetry lists are live references into the components, so the warm
    # sample count must be read *before* the measured replay appends to them.
    warm_samples = len(warm_telemetry.get("toleo_usage_timeline", []))

    engine.replay(state, trace, stop=stop)

    telemetry: Dict[str, Any] = {}
    for component in state.components:
        telemetry.update(component.telemetry())
    # The warm-up window covers indices the *previous* shard measures, so any
    # samples it contributed to list-shaped telemetry (the Toleo usage
    # timeline) would be duplicated by the merge's concatenation -- keep only
    # the samples taken inside this shard's own window.
    if warm_samples and "toleo_usage_timeline" in telemetry:
        telemetry["toleo_usage_timeline"] = telemetry["toleo_usage_timeline"][
            warm_samples:
        ]
    return ShardCounters(
        llc_misses=state.hierarchy.l3.stats.misses - misses_before,
        llc_read_misses=state.llc_read_misses - read_misses_before,
        writebacks=state.writebacks - writebacks_before,
        traffic=TrafficBreakdown(
            **{
                name: getattr(state.ctx.traffic, name) - getattr(traffic_before, name)
                for name in state.ctx.traffic.to_dict()
            }
        ),
        latency=LatencyBreakdown(
            **{
                name: getattr(state.ctx.latency, name) - getattr(latency_before, name)
                for name in state.ctx.latency.to_dict()
            }
        ),
        llc_mpki=trace.llc_mpki,
        instructions_per_access=trace.instructions_per_access,
        telemetry=telemetry,
    )


def run_warm_shard(task: ShardTask) -> ShardCounters:
    """Warm-up-path worker: simulate one shard window independently.

    No checkpoint crosses a process boundary, so all shards of all pairs run
    as one flat ``parallel_map`` task list.
    """
    engine, trace = _task_engine_and_trace(task)
    num_accesses, start, stop, warmup = task[3], task[7], task[8], task[9]
    return _warm_shard_counters(engine, trace, num_accesses, start, stop, warmup or 0)


def merge_warm_shards(
    workload_name: str,
    params: ModeParameters,
    num_accesses: int,
    shards: Sequence[ShardCounters],
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    seed: int = 0,
) -> SimulationResult:
    """Fold independent warm-up shard deltas into one :class:`SimulationResult`.

    Counters sum; the instruction count is re-calibrated from the *summed*
    miss count (through :func:`calibrated_instruction_count`, exactly the
    serial formula); execution time is recomputed through the same
    analytical model.  Ratio telemetry (cache hit rates) is merged as a
    miss-weighted average -- a field present in some shards but not others
    raises, because silently dropping a shard from the average would skew
    the merged rate.  Dict-shaped telemetry (Trip format mix, Toleo usage
    and peak bytes) is summed element-wise: each independent shard's counts
    cover only its own window, so last-shard-wins would report a fraction
    of the run (the summed peak is a conservative upper bound on the true
    peak).  All approximations, which is why this path sits behind the
    explicit warm-up knob and the :data:`WARMUP_DRIFT_GATE`.
    """
    if not shards:
        raise ValueError("cannot merge zero shards")
    traffic = TrafficBreakdown()
    latency_sums = LatencyBreakdown()
    llc_misses = llc_read_misses = writebacks = 0
    for shard in shards:
        for name in traffic.to_dict():
            setattr(traffic, name, getattr(traffic, name) + getattr(shard.traffic, name))
        for name in latency_sums.to_dict():
            setattr(
                latency_sums,
                name,
                getattr(latency_sums, name) + getattr(shard.latency, name),
            )
        llc_misses += shard.llc_misses
        llc_read_misses += shard.llc_read_misses
        writebacks += shard.writebacks

    first = shards[0]
    instructions = calibrated_instruction_count(
        num_accesses,
        first.llc_mpki,
        first.instructions_per_access,
        llc_misses=llc_misses if llc_misses > 0 else None,
    )

    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    execution_time_ns = engine._execution_time_ns(instructions, latency_sums, traffic)
    latency = SimulationEngine._average_latency(latency_sums, llc_read_misses)

    measured: Dict[str, Any] = {}
    weights = [max(1, s.llc_read_misses + s.writebacks) for s in shards]
    for rate_field in ("mac_cache_hit_rate", "stealth_cache_hit_rate"):
        present = [rate_field in s.telemetry for s in shards]
        if any(present) and not all(present):
            raise ValueError(
                f"telemetry field {rate_field!r} is present in "
                f"{sum(present)} of {len(shards)} shards; a partial "
                "weighted average would silently skew the merged rate, so "
                "presence must be all-or-nothing"
            )
        if all(present):
            total_weight = sum(weights)
            measured[rate_field] = (
                sum(s.telemetry[rate_field] * w for s, w in zip(shards, weights))
                / total_weight
            )
    timeline = [
        sample for s in shards for sample in s.telemetry.get("toleo_usage_timeline", [])
    ]
    if timeline:
        measured["toleo_usage_timeline"] = timeline
    # Count telemetry (Trip format mix, Toleo usage/peak bytes): each
    # independent shard's counts cover only the pages its own window touched,
    # so they sum across shards (dicts element-wise, scalars directly) --
    # last-shard-wins would report only the final window's slice of the run.
    for count_field in ("trip_format_counts", "toleo_usage_bytes", "toleo_peak_bytes"):
        values = [s.telemetry[count_field] for s in shards if count_field in s.telemetry]
        if not values:
            continue
        if isinstance(values[0], dict):
            totals: Dict[Any, Any] = {}
            for value in values:
                for bucket, count in value.items():
                    totals[bucket] = totals.get(bucket, 0) + count
            measured[count_field] = totals
        else:
            measured[count_field] = sum(values)

    return SimulationResult(
        workload=workload_name,
        mode=params.label,
        instructions=instructions,
        accesses=num_accesses,
        llc_misses=llc_misses,
        writebacks=writebacks,
        execution_time_ns=execution_time_ns,
        traffic=traffic,
        latency=latency,
        **measured,
    )


# ---------------------------------------------------------------------------
# Checkpoint persistence and resume
# ---------------------------------------------------------------------------


def checkpoint_key(task: Sequence) -> str:
    """Content key of the checkpoint produced by completing this shard task.

    The key carries the *full* identity of the prefix the checkpoint
    represents -- benchmark, resolved mode parameters, scale, run length,
    seed, config/options, the window's ``stop`` -- plus the execution
    strategy that produced it.  Strategy matters here even though it never
    enters a *result* key: a vectorized checkpoint leaves component caches
    untouched and must not seed a scalar replay (and vice versa), and a
    streamed chain's checkpoints are keyed to their slice window.  The code
    fingerprint rides in through :func:`content_key` as always, so a source
    edit strands stale checkpoints exactly like every other entry.
    """
    name, params, scale, num_accesses, seed, config, options = task[:7]
    stop = task[8]
    if len(task) == 12:
        strategy: Dict[str, Any] = {
            "path": "captured",
            "warmup": task[9],
            "distill": task[10],
            "vector": task[11],
        }
    else:
        strategy = {"path": "streamed", "window": task[9]}
    return content_key(
        "checkpoint",
        benchmark=name,
        mode=params,
        scale=scale,
        num_accesses=num_accesses,
        seed=seed,
        config=config,
        options=options,
        stop=stop,
        strategy=strategy,
    )


def _encode_checkpoint(carry: bytes) -> Dict[str, str]:
    return {"state": base64.b64encode(carry).decode("ascii")}


def _decode_checkpoint(payload: Mapping) -> bytes:
    return base64.b64decode(payload["state"])


class _CheckpointJournal:
    """Parent-side persistence of in-flight chain checkpoints.

    Wired into :func:`~repro.sim.parallel.pipelined_map` through its
    ``on_carry`` hook: every intermediate carry (a serialized
    :class:`EngineState`) is written to the persistent store under its
    :func:`checkpoint_key`, keeping only the latest checkpoint per
    chain, and a chain's completion spends its checkpoint (invalidated --
    a finished run leaves no ``checkpoint-*`` residue).  :meth:`restore`
    is the other half: probe each chain's shard boundaries from the end
    backwards, trim the chain to its unfinished suffix, and seed the first
    remaining step with the restored carry.  A resumed chain replays the
    identical checkpoint sequence an uninterrupted run would, so the final
    results are bit-identical and share the run's normal store keys.

    A chain abandoned by degrade-mode quarantine keeps its last checkpoint
    on purpose: the next attempt resumes from the last good shard instead
    of replaying the prefix.
    """

    def __init__(self, chains: Sequence[Sequence], store: Optional[ResultStore] = None):
        self._store = store if store is not None else default_store()
        self._active: List[List] = [list(chain) for chain in chains]
        self._last: List[Optional[str]] = [None] * len(self._active)

    def restore(self) -> Tuple[List[List], List[Optional[bytes]]]:
        """Trim each chain to its unfinished suffix.

        Returns ``(chains, initials)`` ready for ``pipelined_map``: a chain
        with a stored checkpoint at shard k is trimmed to its tasks after k
        and starts from the restored carry; a chain with no checkpoint is
        returned whole with a ``None`` initial (the cold start).  Probing
        runs from the last intermediate shard backwards, so the freshest
        surviving checkpoint wins.
        """
        initials: List[Optional[bytes]] = []
        for chain_index, chain in enumerate(self._active):
            carry: Optional[bytes] = None
            for step in range(len(chain) - 2, -1, -1):
                key = checkpoint_key(chain[step])
                restored = self._store.get(key, decoder=_decode_checkpoint, promote=False)
                if restored is not None:
                    self._active[chain_index] = chain[step + 1 :]
                    self._last[chain_index] = key
                    carry = restored
                    break
            initials.append(carry)
        return self._active, initials

    def on_carry(self, chain_index: int, step_index: int, carry: Any) -> None:
        """Persist an intermediate checkpoint; spend it on chain completion."""
        chain = self._active[chain_index]
        previous = self._last[chain_index]
        if step_index + 1 >= len(chain):
            # Final step: ``carry`` is the chain's result, not a checkpoint,
            # and the run it would have resumed is now complete.
            if previous is not None:
                self._store.invalidate(previous)
                self._last[chain_index] = None
            return
        if not isinstance(carry, (bytes, bytearray)):
            return
        key = checkpoint_key(chain[step_index])
        self._store.put(key, bytes(carry), encoder=_encode_checkpoint, keep_in_memory=False)
        if previous is not None and previous != key:
            self._store.invalidate(previous)
        self._last[chain_index] = key


# ---------------------------------------------------------------------------
# Single-run and suite-level drivers
# ---------------------------------------------------------------------------

def shard_chain(
    name: str,
    mode: ModeLike,
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    distill: bool = False,
    vector: bool = False,
) -> List[ShardTask]:
    """One (benchmark, mode) pair's shard tasks, in window order."""
    params = mode_parameters(mode)
    exact_distill = distill and spec.exact
    return [
        (
            name,
            params,
            scale,
            num_accesses,
            seed,
            config,
            options,
            start,
            stop,
            spec.warmup,
            exact_distill,
            vector and exact_distill,
        )
        for start, stop in shard_bounds(num_accesses, spec.shard_size)
    ]


def stream_shard_chain(
    name: str,
    mode: ModeLike,
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    window: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
) -> List[StreamShardTask]:
    """One (benchmark, mode) pair's streamed shard tasks, in window order."""
    if not spec.exact:
        raise ValueError(
            "streamed execution is exact by construction; it cannot be "
            "combined with the approximate --shard-warmup path"
        )
    if window <= 0:
        raise ValueError(f"stream window must be positive, got {window}")
    params = mode_parameters(mode)
    return [
        (
            name,
            params,
            scale,
            num_accesses,
            seed,
            config,
            options,
            start,
            stop,
            window,
        )
        for start, stop in shard_bounds(num_accesses, spec.shard_size)
    ]


def run_sharded(
    mode: ModeLike,
    trace: Trace,
    spec: ShardSpec,
    num_accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    seed: int = 0,
    baseline_time_ns: Optional[float] = None,
    distill: bool = False,
    vector: bool = False,
) -> SimulationResult:
    """Run one captured trace under one mode, shard by shard, in-process.

    This is the single-pair core the differential tests pin: on the exact
    path every handoff round-trips through ``serialize``/``deserialize`` (so
    the in-process run exercises the same checkpoint machinery the pool path
    ships between processes) and the result is bit-identical to
    ``SimulationEngine.run`` on the same trace.  ``distill`` additionally
    routes every distillable window through the event-replay path -- same
    checkpoints, same result, one hierarchy pass total.  ``vector`` batches
    each distilled window through the numpy kernels on top of that (again
    bit-identical; silently scalar when the stack does not support it).
    """
    from repro.sim import replaycore
    from repro.sim.distill import HierarchyDistiller

    params = mode_parameters(mode)
    total = len(trace) if num_accesses is None else num_accesses
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    bounds = shard_bounds(total, spec.shard_size)

    if spec.exact:
        events = HierarchyDistiller(config).distill(trace, total) if distill else None
        replayer = None
        if vector and events is not None and replaycore.HAVE_NUMPY:
            # The events were distilled in-process (no store), so the
            # verdict tiers are computed in-process too instead of
            # round-tripping through the default store.
            replayer = replaycore.BatchReplayEngine(engine, events, local=True)
        carry: Optional[bytes] = None
        state: Optional[EngineState] = None
        for _, stop in bounds:
            state = (
                engine.begin(trace, total)
                if carry is None
                else EngineState.deserialize(carry)
            )
            if events is not None and engine.distillable(state.components):
                if replayer is not None and replaycore.vectorizable(state.components):
                    replayer.replay(state, stop=stop)
                else:
                    engine.replay_events(state, events, stop=stop)
            else:
                engine.replay(state, trace, stop=stop)
            if stop < total:
                # n shards, n-1 handoffs: the final state finishes live, it
                # is never shipped, so serializing it would be pure waste.
                carry = state.serialize()
        assert state is not None
        return engine.finish(state, trace, baseline_time_ns=baseline_time_ns)

    counters = [
        _warm_shard_counters(engine, trace, total, start, stop, spec.warmup or 0)
        for start, stop in bounds
    ]
    result = merge_warm_shards(
        trace.name, params, total, counters, config=config, options=options, seed=seed
    )
    result.baseline_time_ns = baseline_time_ns
    return result


def run_suite_sharded(
    benchmark_names: Iterable[str],
    spec: ShardSpec,
    modes: Sequence[ModeLike] = EVALUATED_MODES,
    scale: float = 0.002,
    num_accesses: int = 100_000,
    seed: int = 1234,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    jobs: Optional[int] = None,
    distill: bool = True,
    vector: bool = True,
    stream: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    on_failure: Optional[str] = None,
    resume: bool = True,
) -> SuiteResults:
    """Run the benchmark suite with every (benchmark, mode) pair sharded.

    Returns the same nested suite shape as
    :func:`repro.sim.engine.run_suite` -- and on the exact path, the same
    bits.  The exact path pipelines each pair's shard chain through
    :func:`pipelined_map`, with ``distill`` (the default) replaying each
    window from the benchmark's shared miss-event stream and ``vector``
    (also the default) batching those windows through the numpy kernels;
    the warm-up path flattens all shards of all pairs into one
    ``parallel_map`` list (it never distills -- its approximation lives in
    the warm-up replay itself).

    ``stream`` (a window width in accesses) selects the bounded-memory
    streamed path instead: the parent distills each benchmark once,
    window by window, into persistent ``events-slice`` store entries
    (:func:`~repro.sim.distill.stream_event_slices`), and every shard task
    replays from slice store keys -- no full trace or full event stream is
    ever materialised, in the parent or in any worker.  Exact path only,
    and bit-identical to it, so streamed runs share the captured runs'
    persistent store entries.

    ``resume`` (the default) persists each chain's in-flight checkpoint as
    a content-keyed ``checkpoint-*`` store entry and, before running,
    resumes any chain whose previous (killed) run left one behind -- the
    resumed run replays the identical checkpoint sequence, so it is
    bit-identical to an uninterrupted run and a completed run spends its
    checkpoints (no residue).  ``policy``/``manifest``/``on_failure``
    set the supervision policy (see
    :func:`~repro.sim.parallel.parallel_map`); under
    ``on_failure="degrade"`` a quarantined step abandons only its own
    (benchmark, mode) chain, every other chain completes, and the merged
    suite simply omits the quarantined cells (dropping a benchmark whose
    NoProtect baseline was lost).
    """
    policy = resolve_supervision(policy, on_failure)
    names = list(benchmark_names)
    if stream is not None:
        from repro.sim.distill import stream_event_slices

        if not spec.exact:
            raise ValueError(
                "streamed execution is exact by construction; it cannot be "
                "combined with the approximate --shard-warmup path"
            )
        if stream <= 0:
            raise ValueError(f"stream window must be positive, got {stream}")
        # Pre-distill the slices in the parent (a no-op when they are
        # already stored), so the workers' loads are warm disk hits instead
        # of one redundant regeneration per worker.
        for name in names:
            stream_event_slices(name, scale, seed, num_accesses, stream, config)
        pairs = suite_pairs(names, modes)
        stream_chains = [
            stream_shard_chain(
                name,
                label,
                spec,
                scale,
                num_accesses,
                seed,
                stream,
                config,
                options,
            )
            for name, label in pairs
        ]
        finals = _run_exact_chains(
            run_stream_shard_step, stream_chains, jobs, policy, manifest, resume
        )
        return merge_suite_results(pairs, finals, modes)
    if distill and spec.exact:
        predistill_suite(names, modes, scale, num_accesses, seed, config, vector)
    pairs = suite_pairs(names, modes)
    chains = [
        shard_chain(
            name,
            label,
            spec,
            scale,
            num_accesses,
            seed,
            config,
            options,
            distill,
            vector,
        )
        for name, label in pairs
    ]

    if spec.exact:
        finals = _run_exact_chains(run_shard_step, chains, jobs, policy, manifest, resume)
    else:
        flat = [task for chain in chains for task in chain]
        outcomes = parallel_map(run_warm_shard, flat, jobs=jobs, policy=policy, manifest=manifest)
        finals = []
        cursor = 0
        for (name, label), chain in zip(pairs, chains):
            shards = outcomes[cursor : cursor + len(chain)]
            cursor += len(chain)
            # Degrade mode: one quarantined shard makes the pair's merged
            # counters meaningless, so the whole (benchmark, mode) cell is
            # dropped -- partial results are explicit, never approximate.
            failed = next((shard for shard in shards if isinstance(shard, TaskFailure)), None)
            if failed is not None:
                finals.append(failed)
                continue
            finals.append(
                merge_warm_shards(
                    name,
                    mode_parameters(label),
                    num_accesses,
                    shards,
                    config=config,
                    options=options,
                    seed=seed,
                )
            )

    return merge_suite_results(pairs, finals, modes)


def _run_exact_chains(
    step: Callable[[Any, Any], Any],
    chains: List[List],
    jobs: Optional[int],
    policy: SupervisionPolicy,
    manifest: Optional[FailureManifest],
    resume: bool,
) -> List[Any]:
    """Pipeline checkpoint-handoff chains, resuming from and journaling
    their in-flight checkpoints when ``resume`` is set."""
    journal = _CheckpointJournal(chains) if resume else None
    initials = None
    if journal is not None:
        chains, initials = journal.restore()
    return pipelined_map(
        step,
        chains,
        jobs=jobs,
        policy=policy,
        manifest=manifest,
        initials=initials,
        on_carry=journal.on_carry if journal is not None else None,
    )


__all__ = [
    "WARMUP_DRIFT_GATE",
    "ShardCounters",
    "ShardSpec",
    "ShardTask",
    "StreamShardTask",
    "checkpoint_key",
    "merge_warm_shards",
    "run_shard_step",
    "run_sharded",
    "run_stream_shard_step",
    "run_suite_sharded",
    "run_warm_shard",
    "shard_bounds",
    "shard_chain",
    "stream_shard_chain",
]
