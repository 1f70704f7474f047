"""Differential tests for sharded trace execution (`repro.sim.shard`).

The design center of the sharding subsystem is *exactness*: the
checkpoint-handoff chain must be bit-identical to the serial engine for
every registered mode (seed modes and registry-only variants alike) at any
shard width.  These tests are the pin: every field of every result is compared
through ``SimulationResult.to_dict()`` -- floats included, no tolerance.
"""

import dataclasses

import pytest

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.core.config import KIB, CacheConfig, SystemConfig
from repro.sim.configs import registered_modes
from repro.sim.engine import EngineState, SimulationEngine, run_suite
from repro.sim.engine import EngineOptions
from repro.sim.shard import (
    ShardSpec,
    ShardTask,
    _CheckpointJournal,
    checkpoint_key,
    run_shard_step,
    run_sharded,
    run_suite_sharded,
    shard_bounds,
    shard_chain,
    stream_shard_chain,
)
from repro.sim.store import ResultStore
from repro.workloads.registry import get_workload

#: A down-scaled cache geometry for the exhaustive mode x shard-width matrix:
#: the identity property is geometry-independent, and small caches keep the
#: several hundred checkpoint handoffs of the shard_size=1 case cheap.
SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

TRACE_LEN = 260

#: The issue's shard widths: degenerate (1), prime-and-tiny (7), a clean
#: halving, exactly the trace length, and beyond it (single padded shard).
SHARD_SIZES = (1, 7, TRACE_LEN // 2, TRACE_LEN, TRACE_LEN + 13)

ALL_MODES = registered_modes()


@pytest.fixture(scope="module")
def trace():
    return get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)


@pytest.fixture(scope="module")
def serial_results(trace):
    """The serial engine's result per registered mode (the ground truth)."""
    return {
        mode: SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7).run(
            trace, num_accesses=TRACE_LEN
        )
        for mode in ALL_MODES
    }


class TestExactShardingIsBitIdentical:
    """Checkpoint handoff == serial engine, for every mode and shard width."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_every_shard_width_matches_serial(self, mode, trace, serial_results):
        serial = serial_results[mode].to_dict()
        for shard_size in SHARD_SIZES:
            sharded = run_sharded(
                mode, trace, ShardSpec(shard_size), config=SMALL_CONFIG, seed=7
            )
            assert sharded.to_dict() == serial, f"shard_size={shard_size}"

    def test_default_config_matches_serial(self):
        # One mode at the real (Table 3) geometry, so the matrix's scaled
        # config cannot mask a geometry-dependent divergence.
        trace = get_workload("bsw", scale=0.002, seed=3).capture(2000)
        serial = SimulationEngine.from_mode("Toleo", seed=3).run(trace, num_accesses=2000)
        sharded = run_sharded("Toleo", trace, ShardSpec(700), seed=3)
        assert sharded.to_dict() == serial.to_dict()


class TestSuiteShardedExecution:
    """Suite-level sharding through the real pipelined pool."""

    NAMES = ("bsw", "memcached")
    MODES = ("CI", "Toleo", "CIF-Tree")

    @pytest.fixture(scope="class")
    def serial_suite(self):
        return run_suite(self.NAMES, modes=self.MODES, num_accesses=2000)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_bit_identical_across_worker_counts(self, jobs, serial_suite):
        sharded = run_suite_sharded(
            self.NAMES, ShardSpec(600), modes=self.MODES, num_accesses=2000, jobs=jobs
        )
        assert {
            bench: {mode: result.to_dict() for mode, result in per_mode.items()}
            for bench, per_mode in sharded.items()
        } == {
            bench: {mode: result.to_dict() for mode, result in per_mode.items()}
            for bench, per_mode in serial_suite.items()
        }

    def test_baseline_stitched_like_serial(self, serial_suite):
        sharded = run_suite_sharded(
            self.NAMES, ShardSpec(600), modes=self.MODES, num_accesses=2000, jobs=2
        )
        for bench in self.NAMES:
            for mode in self.MODES:
                assert (
                    sharded[bench][mode].slowdown == serial_suite[bench][mode].slowdown
                )


class TestCheckpointHandoff:
    """The shard-step worker contract the pipelined scheduler relies on."""

    def test_chain_replays_through_serialized_checkpoints(self, trace):
        chain = shard_chain("memcached", "CI", ShardSpec(90), 0.002, TRACE_LEN, 7)
        carry = None
        for task in chain[:-1]:
            carry = run_shard_step(task, carry)
            assert isinstance(carry, bytes)
        final = run_shard_step(chain[-1], carry)
        serial = SimulationEngine.from_mode("CI", seed=7).run(
            get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN),
            num_accesses=TRACE_LEN,
        )
        assert final.to_dict() == serial.to_dict()

    def test_misaligned_checkpoint_rejected(self, trace):
        chain = shard_chain("memcached", "CI", ShardSpec(90), 0.002, TRACE_LEN, 7)
        stale = run_shard_step(chain[0], None)
        with pytest.raises(ValueError, match="resumes at access"):
            run_shard_step(chain[2], stale)  # skipped a shard

    def test_checkpoint_blob_must_hold_engine_state(self):
        import pickle

        with pytest.raises(TypeError, match="EngineState"):
            EngineState.deserialize(pickle.dumps({"not": "a state"}))


class TestCheckpointKey:
    """Checkpoints are keyed by the strategy that built them.

    A vectorized checkpoint leaves component caches untouched, and a
    streamed checkpoint belongs to its slice window, so a resume must never
    seed one strategy's replay from another's checkpoint -- even at the same
    window ``stop``.
    """

    ARGS = ("bsw", "CI", ShardSpec(100), 0.002, 300, 7)

    def first_tasks(self):
        return {
            "undistilled": shard_chain(*self.ARGS)[0],
            "distilled-scalar": shard_chain(*self.ARGS, distill=True)[0],
            "distilled-vector": shard_chain(*self.ARGS, distill=True, vector=True)[0],
            "streamed-50": stream_shard_chain(*self.ARGS, 50)[0],
            "streamed-100": stream_shard_chain(*self.ARGS, 100)[0],
        }

    def test_strategies_key_distinctly_at_the_same_stop(self):
        tasks = self.first_tasks()
        assert {task.stop for task in tasks.values()} == {100}
        keys = {label: checkpoint_key(task) for label, task in tasks.items()}
        assert len(set(keys.values())) == len(keys), keys

    def test_equal_tasks_key_equally(self):
        again = self.first_tasks()
        for label, task in self.first_tasks().items():
            assert checkpoint_key(task) == checkpoint_key(again[label])

    def test_untyped_task_rejected(self):
        with pytest.raises(TypeError, match="not a shard task"):
            checkpoint_key(tuple(shard_chain(*self.ARGS)[0]))

    def test_every_window_of_every_strategy_keys_distinctly(self):
        chains = (
            shard_chain(*self.ARGS),
            shard_chain(*self.ARGS, distill=True),
            shard_chain(*self.ARGS, distill=True, vector=True),
            stream_shard_chain(*self.ARGS, 50),
            stream_shard_chain(*self.ARGS, 100),
        )
        keys = [checkpoint_key(task) for chain in chains for task in chain]
        assert len(keys) == 5 * 3
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize(
        "field, value",
        (
            ("name", "memcached"),
            ("params", "Toleo"),
            ("scale", 0.004),
            ("num_accesses", 400),
            ("seed", 8),
            ("config", SMALL_CONFIG),
            ("options", EngineOptions(base_cpi=0.7)),
        ),
    )
    def test_every_prefix_identity_field_reaches_the_key(self, field, value):
        # A checkpoint stands for one exact prefix: a chain that differs in
        # any identity field must never resume from it.
        task = shard_chain(*self.ARGS)[0]
        if field == "params":
            value = shard_chain("bsw", value, ShardSpec(100), 0.002, 300, 7)[0].params
        assert checkpoint_key(task._replace(**{field: value})) != checkpoint_key(task)

    def test_vector_without_distill_is_the_undistilled_path(self):
        # ``vector`` only applies on top of distillation, so the flag alone
        # neither changes the chain nor its checkpoints.
        plain = shard_chain(*self.ARGS)
        flagged = shard_chain(*self.ARGS, vector=True)
        assert flagged == plain
        assert [checkpoint_key(t) for t in flagged] == [checkpoint_key(t) for t in plain]

    def test_keys_live_in_the_checkpoint_namespace(self):
        for task in self.first_tasks().values():
            assert checkpoint_key(task).startswith("checkpoint-")


class TestCheckpointJournalStrategies:
    """A resume only ever restores a checkpoint of its own strategy."""

    ARGS = ("bsw", "CI", ShardSpec(100), 0.002, 300, 7)

    def chains(self):
        return {
            "undistilled": shard_chain(*self.ARGS),
            "distilled-scalar": shard_chain(*self.ARGS, distill=True),
            "distilled-vector": shard_chain(*self.ARGS, distill=True, vector=True),
            "streamed-100": stream_shard_chain(*self.ARGS, 100),
        }

    def journal_one_checkpoint(self, store, label):
        journal = _CheckpointJournal([self.chains()[label]], store=store)
        journal.restore()
        journal.on_carry(0, 0, b"state after the first window")

    def test_own_checkpoint_is_restored(self, tmp_path):
        store = ResultStore(tmp_path)
        self.journal_one_checkpoint(store, "distilled-vector")
        chain = self.chains()["distilled-vector"]
        (trimmed,), (carry,) = _CheckpointJournal([chain], store=store).restore()
        assert trimmed == chain[1:]
        assert carry == b"state after the first window"

    @pytest.mark.parametrize("other", ("undistilled", "distilled-scalar", "streamed-100"))
    def test_other_strategy_checkpoint_is_ignored(self, tmp_path, other):
        store = ResultStore(tmp_path)
        self.journal_one_checkpoint(store, "distilled-vector")
        chain = self.chains()[other]
        (whole,), (carry,) = _CheckpointJournal([chain], store=store).restore()
        assert whole == chain
        assert carry is None


class TestShardPlanning:
    def test_bounds_cover_and_partition(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_oversized_width_is_one_shard(self):
        assert shard_bounds(5, 99) == [(0, 5)]

    @pytest.mark.parametrize("bad", (0, -3))
    def test_nonpositive_width_rejected(self, bad):
        with pytest.raises(ValueError, match="shard_size"):
            shard_bounds(10, bad)
        with pytest.raises(ValueError, match="shard_size"):
            ShardSpec(bad)

    def test_spec_is_frozen(self):
        spec = ShardSpec(10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.shard_size = 0

    def test_task_carries_identity_window_and_strategy(self):
        assert ShardTask._fields == (
            "name",
            "params",
            "scale",
            "num_accesses",
            "seed",
            "config",
            "options",
            "start",
            "stop",
            "distill",
            "vector",
        )


class TestStoreKeySemantics:
    """Sharded runs share unsharded cache entries."""

    def test_sharded_bench_served_from_unsharded_cache(self, tmp_path):
        from repro.experiments.harness import run_benchmarks

        store = ResultStore(tmp_path)
        unsharded = run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1500, store=store, use_cache=True
        )
        sharded = run_benchmarks(
            ("bsw",),
            modes=("CI",),
            num_accesses=1500,
            store=store,
            use_cache=True,
            shard_size=400,
        )
        # Same key, memory layer preserves identity: no re-simulation happened.
        assert sharded is unsharded

class TestShardSizeSweepAxis:
    def test_shard_size_is_a_run_axis(self):
        from repro.sim.sweep import RUN_AXES, SweepAxis

        assert "shard_size" in RUN_AXES
        SweepAxis("shard_size", (200, 400))  # validates

    def test_nonpositive_axis_value_rejected(self):
        from repro.sim.sweep import SweepAxisError, resolve_point

        with pytest.raises(SweepAxisError, match="positive"):
            resolve_point((("shard_size", 0),), 0.002, 1000, 1, None, None)

    def test_sweep_over_shard_size_is_result_invariant(self, tmp_path):
        from repro.sim.sweep import SweepAxis, run_sweep

        result = run_sweep(
            [SweepAxis("shard_size", (300, 1000))],
            benchmarks=("bsw",),
            modes=("CI",),
            num_accesses=1000,
            store=ResultStore(tmp_path),
            use_cache=False,
        )
        a, b = result.suites
        assert {m: r.to_dict() for m, r in a["bsw"].items()} == {
            m: r.to_dict() for m, r in b["bsw"].items()
        }

    def test_cached_shard_size_sweep_simulates_only_once(self, tmp_path):
        # All widths share one suite key (exact sharding is key-invariant),
        # so with the cache on, the first point's entry must serve every
        # later width instead of re-simulating the identical suite.
        from repro.sim.sweep import SweepAxis, run_sweep

        result = run_sweep(
            [SweepAxis("shard_size", (300, 500, 1000))],
            benchmarks=("bsw",),
            modes=("CI",),
            num_accesses=1000,
            store=ResultStore(tmp_path),
            use_cache=True,
        )
        assert result.simulated_points == 1
        assert result.served_from_store == [False, True, True]

    def test_cli_bench_accepts_shard_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bench",
                "--benchmarks",
                "bsw",
                "--modes",
                "CI",
                "--accesses",
                "1200",
                "--shard-size",
                "400",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shard 400 (exact checkpoint handoff)" in out
        assert "accesses/s" in out

    @pytest.mark.parametrize(
        "argv, message",
        (
            (["bench", "--shard-size", "0"], "--shard-size must be positive"),
            (["bench", "--shard-size", "-5"], "--shard-size must be positive"),
        ),
    )
    def test_cli_shard_flag_misuse_is_a_usage_error(self, capsys, argv, message):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("bench", "sweep"))
    def test_cli_has_no_warmup_flag(self, capsys, command):
        # Exact checkpoint handoff is the only shard discipline.
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--shard-size", "400", "--shard-warmup", "10"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shard-warmup" in capsys.readouterr().err
