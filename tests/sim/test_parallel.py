"""The parallel suite runner must be bit-identical to the serial driver."""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.sim import parallel as parallel_module
from repro.sim.configs import EVALUATED_MODES, LATENCY_MODES, ProtectionMode
from repro.sim.engine import run_suite
from repro.sim.faults import TaskFailedError
from repro.sim.parallel import (
    parallel_map,
    pipelined_map,
    resolve_jobs,
    run_suite_parallel,
)
from repro.sim.store import (
    CODE_FINGERPRINT_ENV,
    code_fingerprint,
    export_code_fingerprint,
)

BENCHES = ("bsw", "memcached")
ACCESSES = 5000
SCALE = 0.002
SEED = 1234


def _flatten(suite):
    """Every measured field of every result, in iteration order."""
    out = []
    for bench, per_mode in suite.items():
        for mode, r in per_mode.items():
            out.append(
                (
                    bench,
                    mode,
                    r.workload,
                    r.instructions,
                    r.accesses,
                    r.llc_misses,
                    r.writebacks,
                    r.execution_time_ns,
                    r.baseline_time_ns,
                    r.traffic.to_dict(),
                    r.latency.to_dict(),
                    r.stealth_cache_hit_rate,
                    r.mac_cache_hit_rate,
                    r.trip_format_counts,
                    r.toleo_usage_bytes,
                    r.toleo_peak_bytes,
                    r.toleo_usage_timeline,
                )
            )
    return out


class TestParallelEqualsSerial:
    def test_all_modes_bit_identical(self):
        serial = run_suite(BENCHES, scale=SCALE, num_accesses=ACCESSES, seed=SEED)
        parallel = run_suite_parallel(
            BENCHES, scale=SCALE, num_accesses=ACCESSES, seed=SEED, jobs=2
        )
        assert _flatten(serial) == _flatten(parallel)

    def test_latency_modes_bit_identical(self):
        serial = run_suite(
            BENCHES, modes=LATENCY_MODES, scale=SCALE, num_accesses=ACCESSES, seed=SEED
        )
        parallel = run_suite_parallel(
            BENCHES,
            modes=LATENCY_MODES,
            scale=SCALE,
            num_accesses=ACCESSES,
            seed=SEED,
            jobs=3,
        )
        assert _flatten(serial) == _flatten(parallel)

    def test_merge_order_matches_serial(self):
        suite = run_suite_parallel(
            BENCHES, scale=SCALE, num_accesses=ACCESSES, seed=SEED, jobs=2
        )
        assert list(suite) == list(BENCHES)
        for per_mode in suite.values():
            assert tuple(per_mode) == EVALUATED_MODES

    def test_baseline_stitched_but_not_returned_when_missing(self):
        # NoProtect runs for the baseline time but stays out of the result,
        # mirroring the serial compare_modes contract.
        suite = run_suite_parallel(
            ("bsw",),
            modes=(ProtectionMode.CI,),
            scale=SCALE,
            num_accesses=ACCESSES,
            seed=SEED,
            jobs=2,
        )
        per_mode = suite["bsw"]
        assert set(per_mode) == {ProtectionMode.CI}
        ci = per_mode[ProtectionMode.CI]
        assert ci.baseline_time_ns is not None
        assert ci.slowdown > 1.0

    def test_filtered_modes_bit_identical_to_serial(self):
        serial = run_suite(
            BENCHES,
            modes=(ProtectionMode.CI, ProtectionMode.TOLEO),
            scale=SCALE,
            num_accesses=ACCESSES,
            seed=SEED,
        )
        parallel = run_suite_parallel(
            BENCHES,
            modes=(ProtectionMode.CI, ProtectionMode.TOLEO),
            scale=SCALE,
            num_accesses=ACCESSES,
            seed=SEED,
            jobs=2,
        )
        assert _flatten(serial) == _flatten(parallel)

    def test_single_job_runs_in_process(self):
        serial = run_suite(("bsw",), scale=SCALE, num_accesses=ACCESSES, seed=SEED)
        inline = run_suite_parallel(
            ("bsw",), scale=SCALE, num_accesses=ACCESSES, seed=SEED, jobs=1
        )
        assert _flatten(serial) == _flatten(inline)


class TestHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_parallel_map_preserves_order(self):
        tasks = list(range(20))
        assert parallel_map(str, tasks, jobs=4) == [str(t) for t in tasks]

    def test_parallel_map_serial_fallback(self):
        assert parallel_map(str, [7], jobs=8) == ["7"]


def _chain_step(task, carry):
    return (carry or 0) + task


def _raising_step(task, carry):
    if task == 20:
        raise ValueError("step 20 failed")
    return (carry or 0) + task


def _raise_value_error(task):
    if task == 3:
        raise ValueError(f"bad task {task}")
    return task


def _within_timeout(call, *args, **kwargs):
    """Run ``call`` on a helper thread: a regression that deadlocks the
    executor fails the test instead of hanging the suite."""
    with ThreadPoolExecutor(max_workers=1) as executor:
        return executor.submit(call, *args, **kwargs).result(timeout=60)


class TestPipelinedMapErrorPaths:
    """A failure in a step or in ``on_carry`` reaches the caller, never hangs."""

    CHAINS = [[1, 2], [10, 20]]  # 2 chains so the multi-worker path runs

    def test_raising_on_carry_reaches_caller(self):
        def on_carry(chain_index, step_index, carry):
            if step_index == 0:
                raise RuntimeError("journal write failed")

        with pytest.raises(RuntimeError, match="journal write failed"):
            _within_timeout(
                pipelined_map, _chain_step, self.CHAINS, jobs=2, on_carry=on_carry
            )

    def test_raising_step_reaches_caller(self):
        with pytest.raises(TaskFailedError, match="step 20 failed") as info:
            _within_timeout(pipelined_map, _raising_step, self.CHAINS, jobs=2)
        assert info.value.record.reason == "exception"

    def test_pipelined_map_still_correct(self):
        assert pipelined_map(_chain_step, self.CHAINS, jobs=2) == [3, 30]


class TestDefaultPolicy:
    """Without a policy a raising task aborts the map as TaskFailedError."""

    def test_worker_exception_is_task_failed_error(self):
        with pytest.raises(TaskFailedError) as info:
            _within_timeout(parallel_map, _raise_value_error, list(range(6)), jobs=2)
        assert info.value.record.reason == "exception"
        assert info.value.record.attempts == 1
        assert "ValueError: bad task 3" in str(info.value)

    def test_inline_exception_chains_the_original(self):
        with pytest.raises(TaskFailedError) as info:
            parallel_map(_raise_value_error, list(range(6)), jobs=1)
        assert info.value.record.reason == "exception"
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "bad task 3"


def _spawn_fingerprint_probe(_task):
    return code_fingerprint()


class TestFingerprintExport:
    @pytest.fixture
    def clear_fingerprint_cache(self):
        # Requested *before* monkeypatch in each test: fixture teardown runs
        # in reverse order, so the cache is cleared after the env var is
        # restored and no sentinel value can leak into later tests.
        code_fingerprint.cache_clear()
        yield
        code_fingerprint.cache_clear()

    def test_env_value_wins_over_rehashing(self, clear_fingerprint_cache, monkeypatch):
        monkeypatch.setenv(CODE_FINGERPRINT_ENV, "pinned-by-parent")
        code_fingerprint.cache_clear()
        assert code_fingerprint() == "pinned-by-parent"

    def test_export_publishes_current_fingerprint(
        self, clear_fingerprint_cache, monkeypatch
    ):
        monkeypatch.delenv(CODE_FINGERPRINT_ENV, raising=False)
        code_fingerprint.cache_clear()
        value = export_code_fingerprint()
        assert os.environ[CODE_FINGERPRINT_ENV] == value == code_fingerprint()
        assert len(value) == 64  # the real hash, not a sentinel

    def test_parallel_map_exports_before_pooling(
        self, clear_fingerprint_cache, monkeypatch
    ):
        monkeypatch.delenv(CODE_FINGERPRINT_ENV, raising=False)
        code_fingerprint.cache_clear()
        parallel_map(str, [1, 2, 3], jobs=2)
        assert os.environ[CODE_FINGERPRINT_ENV] == code_fingerprint()

    def test_spawn_workers_inherit_not_recompute(
        self, clear_fingerprint_cache, monkeypatch
    ):
        # The sentinel can only come from the inherited environment: a worker
        # that re-hashed the package source would return a real 64-char
        # digest instead.
        monkeypatch.setenv(CODE_FINGERPRINT_ENV, "pinned-by-parent")
        monkeypatch.setattr(
            parallel_module,
            "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        observed = parallel_map(_spawn_fingerprint_probe, range(4), jobs=2)
        assert observed == ["pinned-by-parent"] * 4
