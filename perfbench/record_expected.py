"""Record the expected result digests of the benchmark workloads.

Usage (from the repository root)::

    python3 perfbench/record_expected.py --seeds 0-31 1234 4321

For each seed, the digests come from the reference strategy of
``benchspec.run``: the undistilled, unvectorized engine for the suites (the
path the differential tests compare every faster strategy against) and the
in-process run for the space study.
Each seed runs on a fresh store.  Rerun after any change that is meant to
alter simulated results or the workload sizes in ``benchspec.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import benchspec


def parse_seeds(items):
    seeds = []
    for item in items:
        if "-" in item:
            lo, hi = item.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(item))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges a-b")
    args = parser.parse_args()

    sys.path.insert(0, str(benchspec.SRC))
    from repro.sim.store import ResultStore, set_default_store

    work = benchspec.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    table = {"suite": {}, "space": {}}
    for seed in parse_seeds(args.seeds):
        root = tempfile.mkdtemp(prefix="expected-", dir=work)
        try:
            set_default_store(ResultStore(root))
            suite = benchspec.run(
                "suite-captured", seed, benchspec.jobs("suite-captured"), reference=True
            )
            space = benchspec.run(
                "space-study", seed, benchspec.jobs("space-study"), reference=True
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        table["suite"][str(seed)] = benchspec.digest(benchspec.canonical("suite-captured", suite))
        table["space"][str(seed)] = benchspec.digest(benchspec.canonical("space-study", space))
        print(seed, table["suite"][str(seed)][:16], table["space"][str(seed)][:16], flush=True)
    benchspec.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
