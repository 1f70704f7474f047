"""The three benchmark workloads: what each runs, how its output is hashed.

Every workload is one call into a public harness entry point on a cold
store.  The sizes are fixed here, so two commits measured with the same
benchmark code run the same simulated work; only ``seed`` varies the inputs.

* ``suite-captured`` -- ``run_benchmarks`` over the quick suite x every
  registered mode, captured + distilled + vectorized (the ``repro bench`` /
  fig6-9 path).  Hybrid-mode batch replay dominates it.
* ``suite-streamed`` -- the same run description with ``stream =
  shard_size = STREAM_WINDOW``: event-slice store traffic, checkpoint
  handoffs, ``pipelined_map`` and the scalar ``replay_events`` loop.  Same
  simulated bits as ``suite-captured`` (the exactness contract).
* ``space-study`` -- ``run_space_study`` over the quick suite, in-process
  (the fig10-12/table4 data stage): Toleo/Trip updates and
  ``access_stream``, no distillation and no replay.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("suite-captured", "suite-streamed", "space-study")

#: Accesses per (benchmark, mode) cell of both suites.
SUITE_ACCESSES = 20_000
#: Stream window and shard width of ``suite-streamed``: 4 shards per chain,
#: so every chain makes 3 checkpoint handoffs.
STREAM_WINDOW = 5_000
#: Accesses per benchmark of the space study.  The study's cost grows faster
#: than linearly in this (memcached's Trip table re-sums every tracked page
#: on every update), so it is kept well under the ``--quick`` budget.
SPACE_ACCESSES = 10_000

#: Worker processes per run of each workload, never more than the machine
#: has.  The space study runs in-process: memcached's task is its critical
#: path, so a second worker does not shorten the run, and on a 2-core host
#: the pool's scheduling widened the spread of its samples by about half.
JOBS = {"suite-captured": 2, "suite-streamed": 2, "space-study": 1}

DEFAULT_SEED = 1234


def jobs(workload: str) -> int:
    return min(JOBS[workload], os.cpu_count() or 1)


def quick_benchmarks() -> Tuple[str, ...]:
    from repro.experiments.harness import QUICK_BENCHMARKS

    return tuple(QUICK_BENCHMARKS)


def suite_modes() -> Tuple[str, ...]:
    from repro.sim.configs import registered_modes

    return tuple(registered_modes())


def cells(workload: str) -> List[Tuple[str, ...]]:
    """The cells one run of ``workload`` produces: (benchmark, mode) pairs
    for the suites, (benchmark,) for the space study."""
    if workload == "space-study":
        return [(name,) for name in quick_benchmarks()]
    return [(name, mode) for name in quick_benchmarks() for mode in suite_modes()]


def simulated_accesses(workload: str) -> int:
    """Accesses simulated by one run; every suite mode (NoProtect included
    once, as the baseline) replays the whole trace."""
    if workload == "space-study":
        return len(quick_benchmarks()) * SPACE_ACCESSES
    return len(cells(workload)) * SUITE_ACCESSES


def run(workload: str, seed: int, jobs: int, reference: bool = False) -> Any:
    """Run ``workload`` once through its public entry point.

    ``reference`` selects the reference strategy that must produce the same
    bits: for both suites the undistilled, unvectorized engine the
    differential tests compare every faster path against, and for the space
    study the in-process (``jobs=1``) run -- the path its samples take too,
    so there only the digest recorded in ``expected.json`` checks more than
    determinism.
    """
    from repro.experiments import harness

    if workload == "space-study":
        return harness.run_space_study(
            benchmarks=quick_benchmarks(),
            num_accesses=SPACE_ACCESSES,
            seed=seed,
            jobs=1 if reference else jobs,
        )
    window = STREAM_WINDOW if workload == "suite-streamed" and not reference else None
    return harness.run_benchmarks(
        benchmarks=quick_benchmarks(),
        modes=suite_modes(),
        num_accesses=SUITE_ACCESSES,
        seed=seed,
        jobs=jobs,
        stream=window,
        shard_size=window,
        distill=not reference,
        vector=not reference,
    )


def canonical(workload: str, result: Any) -> Dict[str, Any]:
    """The canonical, JSON-ready form of a run's result."""
    if workload == "space-study":
        return {name: study.to_dict() for name, study in result.items()}
    from repro.sim.results import encode_suite

    return encode_suite(result)


def digest(payload: Dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def missing_cells(workload: str, payload: Dict[str, Any]) -> int:
    """Cells absent from a run's canonical result (quarantined or dropped)."""
    if workload == "space-study":
        return sum(1 for (name,) in cells(workload) if name not in payload)
    return sum(
        1 for name, mode in cells(workload) if mode not in payload.get(name, {})
    )


def digest_family(workload: str) -> str:
    """Both suites share one expected digest per seed (same bits)."""
    return "space" if workload == "space-study" else "suite"


def expected_digest(workload: str, seed: int) -> Optional[str]:
    """The digest recorded for ``seed``, or None when none was recorded.

    A missing or unreadable ``expected.json`` raises: the check must not
    turn itself off."""
    table = json.loads(EXPECTED_PATH.read_text())
    return table[digest_family(workload)].get(str(seed))
