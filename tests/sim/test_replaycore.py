"""Differential and property tests for the vectorized replay core.

The contract of :mod:`repro.sim.replaycore` is the same one the distillation
and sharding PRs established: a faster execution strategy must be
*bit-identical* to the serial engine -- every counter, floats included, no
tolerance -- for every registered mode, unsharded and at every shard width,
and strategies must share persistent-store entries (strategy never enters a
store key).  The MAC tier is additionally pinned against the real
:class:`~repro.cache.mac_cache.MacCache`, hit for hit, and the packed numpy
column views are pinned against ``MissEventStream.events()`` with Hypothesis.
"""

import dataclasses
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.cache.mac_cache import MacCache
from repro.core.config import KIB, CacheConfig, SystemConfig
from repro.memory.devices import RackMemory
from repro.sim.configs import (
    CounterTreeSpec,
    EpcPagingSpec,
    ModeParameters,
    mode_parameters,
    registered_modes,
)
from repro.sim.distill import WB_NONE, HierarchyDistiller, MissEventStream
from repro.sim.engine import EngineOptions, EngineState, SimulationEngine, compare_modes
from repro.sim.path import (
    AccessContext,
    CounterTreeComponent,
    EncryptionComponent,
    EpcPagingComponent,
    MacIntegrityComponent,
    PathComponent,
    StealthFreshnessComponent,
)
from repro.sim.replaycore import (
    EPC_FAULT,
    EPC_FAULT_DIRTY_EVICTION,
    EPC_RESIDENT,
    HAVE_NUMPY,
    BatchReplayEngine,
    EpcTier,
    MacTier,
    TreeGeometry,
    TreeTier,
    _merge_columns,
    compute_epc_tier,
    compute_mac_tier,
    compute_tree_tier,
    declare_scalar_safe,
    distilled_epc_tier,
    distilled_mac_tier,
    distilled_tree_tier,
    epc_tier_key,
    mac_tier_key,
    mode_vector_profile,
    precompute_seconds,
    register_batch_kernel,
    replay_plan,
    reset_precompute_seconds,
    tree_tier_key,
    vectorizable,
)
from repro.sim.results import LatencyBreakdown, TrafficBreakdown
from repro.sim.shard import ShardSpec, run_sharded
from repro.sim.store import ResultStore
from repro.workloads.base import Trace
from repro.workloads.registry import get_workload

np = pytest.importorskip("numpy")

#: Same down-scaled geometry as the distillation/sharding matrices: small
#: caches make evictions (and therefore writeback events) frequent on short
#: traces, and the small MAC cache keeps both tier verdicts exercised.
SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

TRACE_LEN = 260

SHARD_SIZES = (1, 7, TRACE_LEN // 2, TRACE_LEN)

ALL_MODES = registered_modes()


@pytest.fixture(scope="module")
def trace():
    return get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)


@pytest.fixture(scope="module")
def events(trace):
    return HierarchyDistiller(SMALL_CONFIG).distill(trace)


@pytest.fixture(scope="module")
def tier(events):
    return compute_mac_tier(events, SMALL_CONFIG)


@pytest.fixture(scope="module")
def serial_results(trace):
    """The full per-access engine's result per mode (the ground truth)."""
    return {
        mode: SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7).run(
            trace, num_accesses=TRACE_LEN
        )
        for mode in ALL_MODES
    }


def vectorized_run(mode, events, tier):
    """One full vectorized replay: begin / batch replay / finish."""
    engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
    state = engine.begin(events, events.num_accesses)
    BatchReplayEngine(engine, events, tier=tier).replay(state)
    return engine.finish(state, events)


def path_counters(state):
    """Every integer tally the protection path keeps, per component."""
    rack = state.ctx.rack
    counters = {
        "local": dataclasses.asdict(rack.local.stats),
        "pool": dataclasses.asdict(rack.pool.stats),
        "traffic": dataclasses.asdict(state.ctx.traffic),
    }
    for pos, component in enumerate(state.components):
        cache = getattr(component, "cache", None)
        if cache is not None:
            stats = cache.stats
            counters[f"{pos}.cache"] = (stats.hits, stats.misses, stats.insertions)
        if isinstance(component, CounterTreeComponent):
            counters[f"{pos}.node_fetches"] = component.node_fetches
        if isinstance(component, EpcPagingComponent):
            counters[f"{pos}.paging"] = (component.page_faults, component.dirty_evictions)
    return counters


class TestVectorizedReplayIsBitIdentical:
    """Batch replay == full replay, for every mode, at every shard width."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_unsharded_batch_replay_matches_serial(self, mode, events, tier, serial_results):
        result = vectorized_run(mode, events, tier)
        assert result.to_dict() == serial_results[mode].to_dict()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_every_shard_width_matches_serial(self, mode, trace, serial_results):
        serial = serial_results[mode].to_dict()
        for shard_size in SHARD_SIZES:
            sharded = run_sharded(
                mode,
                trace,
                ShardSpec(shard_size),
                config=SMALL_CONFIG,
                seed=7,
                distill=True,
                vector=True,
            )
            assert sharded.to_dict() == serial, f"shard_size={shard_size}"

    @pytest.mark.parametrize("mode", ("CI", "Toleo", "CIF-Tree", "Client-SGX", "Vault-Tree"))
    def test_checkpoint_roundtrip_between_vector_windows(
        self, mode, events, tier, serial_results
    ):
        # Serialize/deserialize the state at every window boundary, exactly
        # as the cross-process shard chain does.
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        for stop in range(7, TRACE_LEN, 7):
            BatchReplayEngine(engine, events, tier=tier).replay(state, stop=stop)
            state = EngineState.deserialize(state.serialize())
        BatchReplayEngine(engine, events, tier=tier).replay(state)
        result = engine.finish(state, events)
        assert result.to_dict() == serial_results[mode].to_dict()

    @pytest.mark.parametrize("mode", ("Toleo", "InvisiMem", "CIF-Tree", "Client-SGX"))
    def test_scalar_then_vector_handoff(self, mode, events, tier, serial_results):
        # Strategy compatibility is one-way: a scalar prefix leaves every
        # component cache in its true state, so a vectorized continuation
        # (whose tier verdicts equal the true cache state at any position)
        # stays exact.  The reverse handoff is forbidden by construction --
        # shard chains carry one constant vector flag.
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        engine.replay_events(state, events, stop=TRACE_LEN // 2)
        BatchReplayEngine(engine, events, tier=tier).replay(state)
        result = engine.finish(state, events)
        assert result.to_dict() == serial_results[mode].to_dict()

    @pytest.mark.parametrize("window", (None, 7))
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_component_counters_and_rack_stats_match_scalar(self, mode, window, events, tier):
        # Results aside, the batched components must leave their own
        # counters (tree fetches, page faults, dirty evictions, cache
        # hit/miss tallies) and the rack's device stats as the scalar
        # hooks would -- also when the run is replayed window by window.
        def replayed(vector):
            engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
            state = engine.begin(events, events.num_accesses)
            if vector:
                replayer = BatchReplayEngine(engine, events, tier=tier)
                for stop in range(window or TRACE_LEN, TRACE_LEN, window or TRACE_LEN):
                    replayer.replay(state, stop=stop)
                replayer.replay(state)
            else:
                engine.replay_events(state, events)
            return path_counters(state)

        assert replayed(vector=True) == replayed(vector=False)

    def test_default_config_matches_serial(self):
        # One mode at the real (Table 3) geometry, so the scaled matrix
        # config cannot mask a geometry-dependent divergence.
        trace = get_workload("bsw", scale=0.002, seed=3).capture(2000)
        serial = SimulationEngine.from_mode("Toleo", seed=3).run(trace, num_accesses=2000)
        events = HierarchyDistiller(None).distill(trace)
        engine = SimulationEngine.from_mode("Toleo", seed=3)
        state = engine.begin(events, events.num_accesses)
        BatchReplayEngine(engine, events, tier=compute_mac_tier(events)).replay(state)
        assert engine.finish(state, events).to_dict() == serial.to_dict()

    def test_compare_modes_vector_matches_scalar(self, trace):
        factory = lambda: get_workload("memcached", scale=0.002, seed=7)  # noqa: E731
        scalar = compare_modes(
            factory, modes=("CI", "Toleo"), num_accesses=TRACE_LEN,
            config=SMALL_CONFIG, seed=7, distill=True, vector=False,
        )
        vector = compare_modes(
            factory, modes=("CI", "Toleo"), num_accesses=TRACE_LEN,
            config=SMALL_CONFIG, seed=7, distill=True, vector=True,
        )
        assert {m: r.to_dict() for m, r in vector.items()} == {
            m: r.to_dict() for m, r in scalar.items()
        }


class TestMacTier:
    """The distilled MAC tier equals the real MAC cache, hit for hit."""

    def test_tier_matches_real_mac_cache(self, events, tier):
        cache = MacCache(config=SMALL_CONFIG)
        for pos, (_, address, _, wb) in enumerate(events.events()):
            assert tier.read_hits[pos] == int(cache.access(address)), pos
            if wb is not None:
                assert tier.wb_hits[pos] == int(cache.access(wb, is_write=True)), pos
        assert int(np.sum(tier.read_hits_view)) + int(np.sum(tier.wb_hits_view)) == (
            cache.stats.hits
        )

    def test_tier_covers_both_verdicts(self, tier):
        # The fixture geometry must exercise hits *and* misses, or the
        # differential above proves nothing.
        hits = int(np.sum(tier.read_hits_view))
        assert 0 < hits < tier.num_events

    def test_payload_round_trips(self, tier):
        restored = MacTier.from_payload(tier.to_payload())
        assert restored.to_payload() == tier.to_payload()
        assert bytes(restored.read_hits) == bytes(tier.read_hits)
        assert bytes(restored.wb_hits) == bytes(tier.wb_hits)

    def test_key_tracks_mac_geometry_only(self, events):
        base_key = mac_tier_key(events, SMALL_CONFIG)
        # Non-MAC config changes (latencies, fetch width) share the tier.
        slower = dataclasses.replace(
            SMALL_CONFIG, local_dram_latency_ns=99.0, aes_latency_cycles=80
        )
        assert mac_tier_key(events, slower) == base_key
        # MAC geometry changes invalidate it.
        bigger = dataclasses.replace(SMALL_CONFIG, mac_cache_bytes=128 * KIB)
        assert mac_tier_key(events, bigger) != base_key
        fewer_ways = dataclasses.replace(SMALL_CONFIG, mac_cache_ways=2)
        assert mac_tier_key(events, fewer_ways) != base_key

    def test_distilled_tier_persists_and_reloads(self, events, tier, tmp_path):
        store = ResultStore(tmp_path)
        first = distilled_mac_tier(events, SMALL_CONFIG, store=store)
        assert first.to_payload() == tier.to_payload()
        assert any(key.startswith("mactier-") for key in store.disk_keys())
        # A fresh store over the same directory serves the tier from disk
        # without recomputing: the precompute clock does not advance.
        reset_precompute_seconds()
        reloaded = distilled_mac_tier(events, SMALL_CONFIG, store=ResultStore(tmp_path))
        assert precompute_seconds() == 0.0
        assert reloaded.to_payload() == first.to_payload()

    def test_precompute_clock_counts_cold_computes(self, events):
        reset_precompute_seconds()
        compute_mac_tier(events, SMALL_CONFIG)
        assert precompute_seconds() > 0.0
        reset_precompute_seconds()
        assert precompute_seconds() == 0.0

    def test_tier_rejects_windowed_streams(self, trace, tmp_path):
        distiller = HierarchyDistiller(SMALL_CONFIG)
        distiller.advance(trace, 0, 10)
        window = distiller.advance(trace, 10, 20)
        with pytest.raises(ValueError, match="start_index 0"):
            distilled_mac_tier(window, SMALL_CONFIG, store=ResultStore(tmp_path))


class TestSuiteStoreSharing:
    """Vectorized and scalar runs share persistent suite entries."""

    def test_scalar_served_from_vectorized_entry(self, tmp_path):
        from repro.experiments.harness import run_benchmarks

        store = ResultStore(tmp_path)
        vectorized = run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1500, store=store,
            use_cache=True, distill=True, vector=True,
        )
        scalar = run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1500, store=store,
            use_cache=True, distill=True, vector=False,
        )
        # Same key, memory layer preserves identity: nothing re-simulated.
        assert scalar is vectorized

    def test_vectorized_served_from_scalar_entry(self, tmp_path):
        from repro.experiments.harness import run_benchmarks

        store = ResultStore(tmp_path)
        scalar = run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1500, store=store,
            use_cache=True, distill=True, vector=False,
        )
        vectorized = run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1500, store=store,
            use_cache=True, distill=True, vector=True,
        )
        assert vectorized is scalar


class TestCapabilityRegistry:
    """Component gating: batch where declared, scalar fallback everywhere."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_registered_modes_are_vectorizable(self, mode, events):
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        assert vectorizable(state.components)

    def test_unknown_component_blocks_vectorization(self):
        class Opaque(PathComponent):
            def on_event(self, ctx):  # pragma: no cover - never dispatched
                pass

        assert not vectorizable([Opaque()])

    def test_declare_scalar_safe_admits_new_components(self):
        class Declared(PathComponent):
            def on_event(self, ctx):  # pragma: no cover - never dispatched
                pass

        assert not vectorizable([Declared()])
        declare_scalar_safe(Declared)
        assert vectorizable([Declared()])

    def test_registration_rejects_non_components(self):
        with pytest.raises(TypeError):
            declare_scalar_safe(int)
        with pytest.raises(TypeError):
            register_batch_kernel(int, lambda replay, comp, ctx, batch: None)

    def test_replay_refuses_unvectorizable_stacks(self, events):
        class Opaque2(PathComponent):
            def on_event(self, ctx):  # pragma: no cover - never dispatched
                pass

        engine = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        state.components = list(state.components) + [Opaque2()]
        with pytest.raises(ValueError, match="not vectorizable"):
            BatchReplayEngine(engine, events).replay(state)

    @pytest.mark.parametrize(
        "mode, profile",
        [
            ("NoProtect", "batch"),
            ("C", "batch"),
            ("CI", "batch"),
            ("InvisiMem", "batch"),
            ("Scalable-SGX", "batch"),
            ("CIF-Tree", "batch"),
            ("Client-SGX", "batch"),
            ("Vault-Tree", "batch"),
            ("Toleo", "hybrid"),
            ("Toleo+Tree", "hybrid"),
        ],
    )
    def test_mode_vector_profile(self, mode, profile):
        assert mode_vector_profile(mode_parameters(mode)) == profile

    def test_capability_flags_name_the_scalar_components(self):
        assert mode_parameters("CI").batch_replay_safe
        assert mode_parameters("CI").scalar_replay_components == ()
        assert mode_parameters("Toleo").scalar_replay_components == ("stealth-freshness",)
        # The tree and EPC run from their verdict tiers...
        assert mode_parameters("Client-SGX").scalar_replay_components == ()
        assert mode_parameters("Client-SGX").batch_replay_safe
        # ...except beside stealth freshness, which shares freshness_ns.
        assert mode_parameters("Toleo+Tree").scalar_replay_components == (
            "stealth-freshness",
            "counter-tree",
        )
        assert not mode_parameters("Toleo+Tree").batch_replay_safe

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_capability_flags_match_the_replay_plan(self, mode, events):
        # The descriptive flags and the authoritative type registry agree on
        # which components each registered mode leaves to the scalar loop.
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        _, residual = replay_plan(engine.begin(events, events.num_accesses).components)
        kinds = {
            StealthFreshnessComponent: "stealth-freshness",
            CounterTreeComponent: "counter-tree",
            EpcPagingComponent: "epc-paging",
        }
        assert tuple(kinds[type(c)] for c in residual) == (
            mode_parameters(mode).scalar_replay_components
        )

    def test_residual_float_writer_demotes_kernels(self, events):
        # A scalar-safe component that writes freshness_ns owns that field:
        # the counter tree and EPC kernels must join it in the scalar loop.
        class FreshnessProbe(PathComponent):
            def on_read_miss(self, ctx):
                ctx.latency.freshness_ns += 1.0

        declare_scalar_safe(FreshnessProbe, floats=("freshness_ns",))
        engine = SimulationEngine.from_mode("Client-SGX", config=SMALL_CONFIG, seed=7)
        components = engine.begin(events, events.num_accesses).components
        batched, residual = replay_plan(components + [FreshnessProbe()])
        assert [type(c) for c in residual] == [
            CounterTreeComponent,
            EpcPagingComponent,
            FreshnessProbe,
        ]
        assert [type(c) for c in batched] == [EncryptionComponent, MacIntegrityComponent]

    def test_registration_checks_float_fields(self):
        class Probe(PathComponent):
            pass

        with pytest.raises(ValueError, match="not LatencyBreakdown fields"):
            declare_scalar_safe(Probe, floats=("freshness",))
        with pytest.raises(ValueError, match="dram_ns"):
            register_batch_kernel(Probe, lambda replay, comp, ctx, batch: None, floats=("dram_ns",))


# ---------------------------------------------------------------------------
# Column views (satellite: numpy views pinned against events())
# ---------------------------------------------------------------------------

#: Random access streams over a small region (the distillation suite's
#: strategy): contended sets make evictions, hence writeback columns, common.
ACCESS_STRATEGY = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1023), st.booleans()),
    min_size=1,
    max_size=300,
)

TINY_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 1 * KIB, 2, latency_cycles=4),
    l2_config=CacheConfig("L2", 2 * KIB, 2, latency_cycles=14),
    l3_config=CacheConfig("L3", 4 * KIB, 2, latency_cycles=49),
)


def synthetic_trace(addresses, writes) -> Trace:
    return Trace(
        name="synthetic",
        scale=1.0,
        seed=0,
        footprint_bytes=1 << 20,
        llc_mpki=1.0,
        instructions_per_access=3.0,
        addresses=array("Q", addresses),
        writes=bytearray(writes),
    )


def empty_stream() -> MissEventStream:
    return MissEventStream(
        name="empty",
        scale=1.0,
        seed=0,
        footprint_bytes=1 << 20,
        llc_mpki=1.0,
        instructions_per_access=3.0,
        num_accesses=0,
    )


def views_as_events(stream):
    """Reassemble ``events()`` tuples from the packed column views."""
    return [
        (int(i), int(a), bool(w), None if int(wb) == WB_NONE else int(wb))
        for i, a, w, wb in zip(
            stream.index_view, stream.address_view, stream.write_view, stream.writeback_view
        )
    ]


class TestColumnViews:
    """The numpy column views are the events() iterator, column-packed."""

    @settings(max_examples=60, deadline=None)
    @given(accesses=ACCESS_STRATEGY)
    def test_views_match_events_on_random_streams(self, accesses):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        assert views_as_events(stream) == list(stream.events())

    @settings(max_examples=30, deadline=None)
    @given(accesses=ACCESS_STRATEGY)
    def test_views_survive_payload_round_trip(self, accesses):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        restored = MissEventStream.from_payload(stream.to_payload())
        assert views_as_events(restored) == list(stream.events())

    def test_views_on_real_stream(self, events):
        assert views_as_events(events) == list(events.events())
        assert events.index_view.dtype == np.uint64
        assert events.address_view.dtype == np.uint64
        assert events.write_view.dtype == np.uint8
        assert events.writeback_view.dtype == np.uint64

    def test_empty_stream_views(self):
        stream = empty_stream()
        stream.validate()
        assert len(stream.index_view) == 0
        assert len(stream.address_view) == 0
        assert len(stream.write_view) == 0
        assert len(stream.writeback_view) == 0
        assert views_as_events(stream) == []

    def test_single_event_stream_views(self):
        # One access, one compulsory miss, no writeback.
        trace = synthetic_trace([0], [1])
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        assert len(stream) == 1
        assert views_as_events(stream) == [(0, 0, True, None)]

    def test_views_are_read_only(self, events):
        with pytest.raises(ValueError):
            events.index_view[0] = 1
        with pytest.raises(ValueError):
            events.write_view[0] = 1

    def test_views_are_zero_copy(self):
        trace = synthetic_trace([0, 64, 128], [1, 0, 1])
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        view = stream.address_view
        # A live view exports the packed buffer: growing the stream now must
        # fail loudly rather than silently detach the view.
        with pytest.raises(BufferError):
            stream.addresses.append(0)
        del view
        stream.addresses.append(0)  # and succeeds once the view is gone
        stream.addresses.pop()


# ---------------------------------------------------------------------------
# Tree and EPC verdict tiers
# ---------------------------------------------------------------------------


def bare_context(config=SMALL_CONFIG):
    """A fresh access context for driving one component by hand."""
    return AccessContext(
        rack=RackMemory(config),
        traffic=TrafficBreakdown(),
        latency=LatencyBreakdown(),
        config=config,
        options=EngineOptions(),
        footprint_bytes=1 << 20,
    )


def instrumented_tree_depths(component, events):
    """Each walk's depth, read off a real component's node-fetch counter."""
    ctx = bare_context()
    read_depths, wb_depths = [], []
    for _, address, _, writeback in events.events():
        before = component.node_fetches
        ctx.address = address
        component.on_read_miss(ctx)
        read_depths.append(component.node_fetches - before)
        depth = 0
        if writeback is not None:
            before = component.node_fetches
            ctx.address = writeback
            component.on_writeback(ctx)
            depth = component.node_fetches - before
        wb_depths.append(depth)
    return read_depths, wb_depths


def instrumented_epc_verdicts(component, events):
    """Each touch's verdict and dirty victim, read off a real component."""
    ctx = bare_context()
    read_verdicts, wb_verdicts, victims = [], [], []

    def touch(hook, address, verdicts):
        faults, dirty = component.page_faults, component.dirty_evictions
        resident_before = set(component._resident)
        ctx.address = address
        hook(ctx)
        if component.dirty_evictions > dirty:
            victims.extend(resident_before - set(component._resident))
            verdicts.append(EPC_FAULT_DIRTY_EVICTION)
        elif component.page_faults > faults:
            verdicts.append(EPC_FAULT)
        else:
            verdicts.append(EPC_RESIDENT)

    for _, address, _, writeback in events.events():
        touch(component.on_read_miss, address, read_verdicts)
        if writeback is None:
            wb_verdicts.append(EPC_RESIDENT)
        else:
            touch(component.on_writeback, writeback, wb_verdicts)
    return read_verdicts, wb_verdicts, victims


def stack_component(mode_or_params, component_type, events, config=SMALL_CONFIG, options=None):
    """The ``component_type`` member of a freshly begun mode stack."""
    if isinstance(mode_or_params, ModeParameters):
        engine = SimulationEngine(mode_or_params, config=config, options=options, seed=7)
    else:
        engine = SimulationEngine.from_mode(mode_or_params, config=config, options=options, seed=7)
    state = engine.begin(events, events.num_accesses)
    return next(c for c in state.components if isinstance(c, component_type))


#: Tree stacks over random synthetic streams: scheme, metadata-cache size and
#: ways, and the protected size (hence the depth) all vary.
TREE_SPECS = st.builds(
    CounterTreeSpec,
    scheme=st.sampled_from(["client_sgx", "vault", "morphctr"]),
    cache_bytes=st.sampled_from([64, 256, 1 * KIB, 4 * KIB, 16 * KIB]),
    cache_ways=st.integers(min_value=1, max_value=16),
)

#: Address strides spreading the random blocks over lines, pages or
#: megabytes, so walks share anywhere from every node to none.
STRIDES = st.sampled_from([64, 4096, 1 << 20])


def random_stream(accesses, stride):
    trace = synthetic_trace(
        (block * stride for block, _ in accesses),
        (1 if write else 0 for _, write in accesses),
    )
    return HierarchyDistiller(TINY_CONFIG).distill(trace)


class TestTreeTier:
    """The tree tier equals a real counter-tree component, walk for walk."""

    @pytest.mark.parametrize("mode", ("CIF-Tree", "Client-SGX", "Vault-Tree", "Toleo+Tree"))
    def test_tier_matches_real_component(self, mode, events):
        component = stack_component(mode, CounterTreeComponent, events)
        tier = compute_tree_tier(events, TreeGeometry.of(component))
        read_depths, wb_depths = instrumented_tree_depths(component, events)
        assert list(tier.read_depths) == read_depths
        assert list(tier.wb_depths) == wb_depths

    def test_fixture_exercises_every_depth(self, events):
        # Hits at the leaf, walks stopping midway and full-depth walks.
        component = stack_component("CIF-Tree", CounterTreeComponent, events)
        tier = compute_tree_tier(events, TreeGeometry.of(component))
        assert set(tier.read_depths) == set(range(1, component.levels + 1))
        assert 0 in set(tier.wb_depths)

    @settings(max_examples=60, deadline=None)
    @given(
        accesses=ACCESS_STRATEGY,
        stride=STRIDES,
        spec=TREE_SPECS,
        protected_bytes=st.integers(min_value=1, max_value=1 << 40),
    )
    def test_tier_matches_real_component_on_random_geometries(
        self, accesses, stride, spec, protected_bytes
    ):
        events = random_stream(accesses, stride)
        component = CounterTreeComponent(spec, 1 << 20, protected_bytes=protected_bytes)
        tier = compute_tree_tier(events, TreeGeometry.of(component))
        read_depths, wb_depths = instrumented_tree_depths(component, events)
        assert list(tier.read_depths) == read_depths
        assert list(tier.wb_depths) == wb_depths

    def test_payload_round_trips(self, events):
        component = stack_component("CIF-Tree", CounterTreeComponent, events)
        tier = compute_tree_tier(events, TreeGeometry.of(component))
        restored = TreeTier.from_payload(tier.to_payload())
        assert restored == tier

    def test_key_tracks_tree_geometry_only(self, events):
        def key(params="CIF-Tree", config=SMALL_CONFIG, options=None):
            component = stack_component(params, CounterTreeComponent, events, config, options)
            return tree_tier_key(events, TreeGeometry.of(component), config)

        base = key()
        # Rack latencies and memory-level parallelism apply at fold time.
        slower = dataclasses.replace(
            SMALL_CONFIG, local_dram_latency_ns=99.0, cxl_link_latency_ns=300.0
        )
        assert key(config=slower, options=EngineOptions(memory_level_parallelism=8.0)) == base
        # The metadata cache's ways and the tree shape are geometry.
        cif = mode_parameters("CIF-Tree")
        assert key(dataclasses.replace(cif, counter_tree=CounterTreeSpec(cache_ways=4))) != base
        assert key("Vault-Tree") != base

    def test_distilled_tier_persists_and_reloads(self, events, tmp_path):
        geometry = TreeGeometry.of(stack_component("CIF-Tree", CounterTreeComponent, events))
        first = distilled_tree_tier(events, geometry, SMALL_CONFIG, store=ResultStore(tmp_path))
        assert any(key.startswith("treetier-") for key in ResultStore(tmp_path).disk_keys())
        reloaded = distilled_tree_tier(
            events, geometry, SMALL_CONFIG, store=ResultStore(tmp_path)
        )
        assert reloaded == first == compute_tree_tier(events, geometry)


class TestEpcTier:
    """The EPC tier equals a real EPC-paging component, touch for touch."""

    def test_tier_matches_real_component(self, events):
        component = stack_component("Client-SGX", EpcPagingComponent, events)
        tier = compute_epc_tier(events, component.epc_pages)
        read_verdicts, wb_verdicts, victims = instrumented_epc_verdicts(component, events)
        assert list(tier.read_verdicts) == read_verdicts
        assert list(tier.wb_verdicts) == wb_verdicts
        assert list(tier.victims) == victims
        # The fixture must page, and evict dirty pages, or this proves little.
        assert victims and EPC_FAULT in read_verdicts

    @settings(max_examples=60, deadline=None)
    @given(
        accesses=ACCESS_STRATEGY,
        stride=STRIDES,
        epc_pages=st.integers(min_value=1, max_value=8),
    )
    def test_tier_matches_real_component_on_random_sizes(self, accesses, stride, epc_pages):
        events = random_stream(accesses, stride)
        component = EpcPagingComponent(EpcPagingSpec(min_epc_pages=epc_pages), 1)
        assert component.epc_pages == epc_pages
        tier = compute_epc_tier(events, epc_pages)
        read_verdicts, wb_verdicts, victims = instrumented_epc_verdicts(component, events)
        assert list(tier.read_verdicts) == read_verdicts
        assert list(tier.wb_verdicts) == wb_verdicts
        assert list(tier.victims) == victims

    def test_payload_round_trips(self, events):
        tier = compute_epc_tier(events, 16)
        assert len(tier.victims) > 0
        restored = EpcTier.from_payload(tier.to_payload())
        assert restored == tier

    def test_payload_rejects_inconsistent_victims(self, events):
        payload = compute_epc_tier(events, 16).to_payload()
        payload["victims"] = ""
        with pytest.raises(ValueError, match="victims"):
            EpcTier.from_payload(payload)

    def test_key_tracks_epc_size_only(self, events):
        base = epc_tier_key(events, 64, SMALL_CONFIG)
        slower = dataclasses.replace(SMALL_CONFIG, cxl_link_latency_ns=300.0)
        assert epc_tier_key(events, 64, slower) == base
        assert epc_tier_key(events, 32, SMALL_CONFIG) != base

    def test_distilled_tier_persists_and_reloads(self, events, tmp_path):
        first = distilled_epc_tier(events, 16, SMALL_CONFIG, store=ResultStore(tmp_path))
        assert any(key.startswith("epctier-") for key in ResultStore(tmp_path).disk_keys())
        reloaded = distilled_epc_tier(events, 16, SMALL_CONFIG, store=ResultStore(tmp_path))
        assert reloaded == first


class TestTierResolution:
    """Where a replay's tiers come from: the store, or in-process."""

    def test_replay_persists_tree_and_epc_tiers(self, events, tmp_path):
        store = ResultStore(tmp_path)
        engine = SimulationEngine.from_mode("Client-SGX", config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        BatchReplayEngine(engine, events, store=store).replay(state)
        kinds = {key.split("-")[0] for key in store.disk_keys()}
        assert {"mactier", "treetier", "epctier"} <= kinds

    def test_local_replay_never_touches_the_store(self, events, tmp_path):
        store = ResultStore(tmp_path)
        engine = SimulationEngine.from_mode("Client-SGX", config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        BatchReplayEngine(engine, events, store=store, local=True).replay(state)
        assert not list(store.disk_keys())


class TestRandomGeometryReplay:
    """Vectorized tree/EPC stacks equal the scalar replay on random geometries."""

    def test_thrashing_epc_matches_scalar_window_by_window(self):
        # Writes sweeping 48 pages through a two-page EPC evict dirty pages
        # of both devices all run long, so every window must credit exactly
        # its own victims.  Five-access windows do not align with the rack's
        # seven-page device period, so a misplaced victim slice shows.
        trace = synthetic_trace(
            [page * 4096 + 64 * sweep for sweep in range(3) for page in range(48)], [1] * 144
        )
        events = HierarchyDistiller(TINY_CONFIG).distill(trace)
        params = ModeParameters(
            "Thrashing-SGX",
            aes_on_read=True,
            mac_traffic=True,
            counter_tree=CounterTreeSpec(cache_bytes=1 * KIB),
            epc_paging=EpcPagingSpec(epc_fraction=0.0, min_epc_pages=2),
        )
        victims = compute_epc_tier(events, 2).victims
        period = RackMemory(TINY_CONFIG)._cxl_period
        assert {page % period == 0 for page in victims} == {True, False}

        def run(vector):
            engine = SimulationEngine(params, config=TINY_CONFIG, seed=7)
            state = engine.begin(events, events.num_accesses)
            if vector:
                replayer = BatchReplayEngine(engine, events, local=True)
                for stop in range(5, events.num_accesses, 5):
                    replayer.replay(state, stop=stop)
                replayer.replay(state)
            else:
                engine.replay_events(state, events)
            counters = path_counters(state)
            return engine.finish(state, events).to_dict(), counters

        assert run(vector=True) == run(vector=False)

    @settings(max_examples=40, deadline=None)
    @given(
        accesses=ACCESS_STRATEGY,
        stride=STRIDES,
        spec=TREE_SPECS,
        epc_pages=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        windows=st.integers(min_value=1, max_value=4),
    )
    def test_vectorized_matches_scalar(self, accesses, stride, spec, epc_pages, windows):
        events = random_stream(accesses, stride)
        params = ModeParameters(
            "Random-Tree",
            aes_on_read=True,
            mac_traffic=True,
            counter_tree=spec,
            epc_paging=None if epc_pages is None else EpcPagingSpec(
                epc_fraction=0.0, min_epc_pages=epc_pages
            ),
        )

        def run(vector):
            engine = SimulationEngine(params, config=TINY_CONFIG, seed=0)
            state = engine.begin(events, events.num_accesses)
            if vector:
                replayer = BatchReplayEngine(engine, events, local=True)
                for window in range(1, windows + 1):
                    replayer.replay(state, stop=events.num_accesses * window // windows)
            else:
                engine.replay_events(state, events)
            counters = path_counters(state)
            return engine.finish(state, events).to_dict(), counters

        assert run(vector=True) == run(vector=False)


class TestColumnMerge:
    """Several writers' charges interleave event-major, writer-minor."""

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
            min_size=1,
            max_size=3,
        )
    )
    def test_merge_matches_naive_interleave(self, counts):
        parts, expected, label = [], [[] for _ in range(5)], 0.0
        for writer in counts:
            values = []
            for event, count in enumerate(writer):
                for _ in range(count):
                    label += 1.0
                    values.append(label)
                    expected[event].append(label)
            parts.append((np.array(writer), np.array(values, dtype=np.float64)))
        merged = _merge_columns(5, parts)
        assert list(merged) == [value for event in expected for value in event]
