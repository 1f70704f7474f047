"""Run one benchmark workload: cold samples, medians, output check.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-captured --seed 1234 --seconds 20 --trace 0

Every sample is a fresh ``coldrun.py`` process on its own empty store with
``REPRO_FAULT_PLAN`` unset, so no memo or store entry of an earlier sample
serves a later one.  One discarded warm-up run comes first; it runs the
workload through the reference strategy of ``benchspec.run``, which must give
the same bits, and its digest is the reference every sample is checked
against (as is the digest recorded in ``expected.json`` for the seed, when
there is one).

Right before every sample the machine's speed is measured with the fixed
calibration of ``speed.py``, and the sample's times are rescaled by
``speed.REFERENCE_S / calibration time``: that divides out the host's drift
and leaves the program's own changes whole.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
recorded context, every metric with its unit and every ratio with its base.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import benchspec
import speed

HERE = Path(__file__).resolve().parent
WORK = benchspec.ROOT / ".perfbench"

#: Whole-invocation budget: past it no further sample starts and a running
#: one is killed.
BUDGET_S = 165.0
#: Fewest untraced (and, with ``--trace 1``, traced) samples per invocation.
MIN_SAMPLES = 3

#: Variables that would make a run warm or faulty.
_SCRUBBED_ENV = ("REPRO_FAULT_PLAN", "REPRO_CACHE_DIR", "REPRO_CODE_FINGERPRINT")


def declared() -> Dict[str, Any]:
    return json.loads((benchspec.ROOT / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    return {metric["name"]: metric["unit"] for metric in declared()[kind]}


class Runner:
    """Starts cold-run processes against fresh stores, within the budget."""

    def __init__(self, workload: str, jobs: int, deadline: float) -> None:
        self.workload = workload
        self.jobs = jobs
        self.deadline = deadline
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
        self.env["TMPDIR"] = str(self.scratch)
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def cold_run(self, seed: int, trace: int = 0, reference: bool = False) -> Dict[str, Any]:
        """One sample; ``{"ok": False, "error": ...}`` when it failed."""
        self.count += 1
        store = self.scratch / f"store-{self.count}"
        command = [
            sys.executable, str(HERE / "coldrun.py"),
            "--workload", self.workload, "--seed", str(seed), "--jobs", str(self.jobs),
            "--store", str(store), "--trace", str(trace),
        ]
        if reference:
            command.append("--reference")
        if trace:
            command += ["--spans-out", str(WORK / f"spans-{self.workload}.json")]
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=benchspec.ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"ok": False, "seed": seed, "error": "killed at the time budget"}
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return {"ok": False, "seed": seed, "error": tail[0]}
        record = json.loads(out.strip().splitlines()[-1])
        record.update(ok=True, seed=seed, traced=bool(trace))
        record["setup_s"] = record["ready_at"] - spawned
        return record


def check(
    records: List[Dict[str, Any]], workload: str, reference: Optional[str], expected: Optional[str]
):
    """Mark every record's failed cells; return (attempted, failed)."""
    cells = len(benchspec.cells(workload))
    attempted = failed = 0
    for record in records:
        attempted += cells
        if not record["ok"]:
            record["failed_cells"] = cells
        elif reference is None or record["digest"] != reference:
            record["failed_cells"] = cells
        elif expected is not None and record["digest"] != expected:
            record["failed_cells"] = cells
        else:
            record["failed_cells"] = record["missing_cells"]
        failed += record["failed_cells"]
    return attempted, failed


def expected_check(seed: int, expected: Optional[str]) -> str:
    if expected is None:
        return f"expected check: skipped (no digest recorded for seed {seed})"
    return f"expected check: seed {seed} against {expected[:16]}"


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def describe(values: List[float]) -> str:
    if not values:
        return "no samples"
    return f"median over n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=benchspec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=benchspec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out-seed", type=int, default=None,
        help="also check (and time once) the workload on this second seed",
    )
    args = parser.parse_args()

    if not (benchspec.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {benchspec.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(benchspec.SRC))

    expected = benchspec.expected_digest(args.workload, args.seed)
    held_out_expected = (
        None if args.held_out_seed is None
        else benchspec.expected_digest(args.workload, args.held_out_seed)
    )
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    jobs = benchspec.jobs(args.workload)
    runner = Runner(args.workload, jobs, started + BUDGET_S)
    try:
        warmup = runner.cold_run(args.seed, reference=True)
        reference = warmup.get("digest")
        samples: List[Dict[str, Any]] = []
        measure_from = time.perf_counter()
        longest = 0.0
        while time.perf_counter() < runner.deadline:
            untraced = [r for r in samples if r["ok"] and not r["traced"]]
            traced = [r for r in samples if r["ok"] and r["traced"]]
            if sum(not r["ok"] for r in samples) >= MIN_SAMPLES:
                break
            # Start a sample only if it should end within --seconds, unless
            # the minimum sample count is not reached yet.
            fits = time.perf_counter() - measure_from + longest <= args.seconds
            if not fits and len(untraced) >= MIN_SAMPLES and (
                not args.trace or len(traced) >= MIN_SAMPLES
            ):
                break
            trace = args.trace and len(samples) % 2 == 1
            began = time.perf_counter()
            calibration_s = speed.calibrate()
            samples.append(runner.cold_run(args.seed, trace=int(trace)))
            samples[-1]["calibration_s"] = calibration_s
            longest = max(longest, time.perf_counter() - began)
        held_out: List[Dict[str, Any]] = []
        if args.held_out_seed is not None:
            held_out = [
                runner.cold_run(args.held_out_seed, reference=True),
                runner.cold_run(args.held_out_seed),
            ]
    finally:
        runner.close()

    attempted, failed = check([warmup] + samples, args.workload, reference, expected)
    print(expected_check(args.seed, expected))
    if held_out:
        print(expected_check(args.held_out_seed, held_out_expected))
        more = check(held_out, args.workload, held_out[0].get("digest"), held_out_expected)
        attempted += more[0]
        failed += more[1]

    untraced = [r for r in samples if r["ok"] and not r["traced"]]
    traced = [r for r in samples if r["ok"] and r["traced"]]
    for record in [warmup] + samples + held_out:
        if not record["ok"]:
            print(f"failed run (seed {record['seed']}): {record['error']}")
    if not untraced or (args.trace and not traced):
        print("error: no successful sample to report", file=sys.stderr)
        return 1

    # Every time below is rescaled to the reference machine speed (speed.py)
    # by the factor measured right before its sample.
    for record in samples:
        record["speed_factor"] = speed.REFERENCE_S / record["calibration_s"]
    calibrations = [r["calibration_s"] for r in samples]

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.held_out_seed,
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "benchmarks": list(benchspec.quick_benchmarks()),
        "modes": [] if args.workload == "space-study" else list(benchspec.suite_modes()),
        "accesses_per_cell": (
            benchspec.SPACE_ACCESSES if args.workload == "space-study"
            else benchspec.SUITE_ACCESSES
        ),
        "stream_window": (
            benchspec.STREAM_WINDOW if args.workload == "suite-streamed" else None
        ),
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "reference_digest": reference,
        "expected_digest": expected,
        "failed_cells_frac": failed / attempted,
        "failed_cells_frac_base": f"{attempted} cells attempted",
        "speed": {
            "calibration_s": median(calibrations),
            "calibrations": len(calibrations),
            "reference_s": speed.REFERENCE_S,
            "median_factor": median([r["speed_factor"] for r in samples]),
        },
    }
    if held_out:
        context["held_out"] = {
            "host_wall_s": held_out[1].get("wall_s"),
            "digest": held_out[1].get("digest"),
            "failed_cells": sum(r["failed_cells"] for r in held_out),
        }
    print("context " + json.dumps(context))
    print("samples " + json.dumps([
        {key: r.get(key) for key in ("traced", "calibration_s", "setup_s", "wall_s", "peak_rss_mb")}
        for r in samples if r["ok"]
    ]))

    def rescaled(records: List[Dict[str, Any]], key: str) -> List[float]:
        return [r[key] * r["speed_factor"] for r in records]

    def host(records: List[Dict[str, Any]], key: str) -> str:
        return "rescaled to the reference speed; host " + describe([r[key] for r in records])

    wall = rescaled(untraced, "wall_s")
    metrics: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    if not args.trace:
        accesses = benchspec.simulated_accesses(args.workload)
        rss = [r["peak_rss_mb"] for r in untraced]
        metrics = {
            "setup_s": median(rescaled(untraced, "setup_s")),
            "wall_s": median(wall),
            "sim_accesses_per_s": median([accesses / seconds for seconds in wall]),
            "peak_rss_mb": median(rss),
            "ok_cells_frac": 1.0 - failed / attempted,
        }
        notes = {
            "setup_s": host(untraced, "setup_s"),
            "wall_s": host(untraced, "wall_s"),
            "sim_accesses_per_s": f"{accesses} simulated accesses per run / wall_s, per sample",
            "peak_rss_mb": f"max(parent, largest worker); {describe(rss)}",
            "ok_cells_frac": f"1 - failed_cells_frac; base {attempted} cells attempted",
        }
        units = declared_units("end_to_end")
    else:
        units = declared_units("per_layer")
        for name in units:
            if name == "trace.overhead_frac":
                continue
            values = [r["layers"][name] for r in traced]
            notes[name] = describe(values)
            if units[name] in ("s", "us"):
                values = [value * r["speed_factor"] for value, r in zip(values, traced)]
                notes[name] = "rescaled to the reference speed; host " + notes[name]
            metrics[name] = median(values)
        traced_wall = rescaled(traced, "wall_s")
        metrics["trace.overhead_frac"] = median(traced_wall) / median(wall) - 1.0
        notes["trace.overhead_frac"] = (
            f"base: untraced wall_s {median(wall):.6g} s (n={len(wall)}), "
            f"traced wall_s {median(traced_wall):.6g} s (n={len(traced_wall)})"
        )
        for name, base in traced[-1]["bases"].items():
            notes[name] += f"; base {base} (last traced run)"

    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}  ({notes[name]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
