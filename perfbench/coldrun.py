"""One cold run of one benchmark workload, in a fresh process.

Started by ``run.py`` once per sample so that no in-process memo (the
``capture_trace`` LRU, the store's memory layer) serves a later sample.  The
store is a new, empty directory given on the command line.  Prints one JSON
line: the perf_counter stamp at which set-up ended, the host seconds of the
entry-point call, the result digest, missing cells and peak RSS, plus the
per-layer metrics when ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import benchspec


def peak_rss_mb() -> float:
    """Max of this process's peak RSS and its largest reaped worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=benchspec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--store", required=True, help="empty store directory")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="where a traced run writes its spans")
    args = parser.parse_args()

    sys.path.insert(0, str(benchspec.SRC))
    from repro.sim.store import ResultStore, set_default_store

    modes = list(benchspec.suite_modes())
    benchspec.quick_benchmarks()  # imports the harness and every experiment
    store = ResultStore(args.store)
    set_default_store(store)
    store.stats()

    def entry_point():
        return benchspec.run(args.workload, args.seed, args.jobs, reference=args.reference)

    if args.trace:
        import spans

        spans.install()
        root = spans.TRACER.new_id()
        ready_at = time.perf_counter()
        result = spans.TRACER.span(root, "harness.run", entry_point)
    else:
        ready_at = time.perf_counter()
        result = entry_point()
    wall_s = time.perf_counter() - ready_at

    payload = benchspec.canonical(args.workload, result)
    record = {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "digest": benchspec.digest(payload),
        "missing_cells": benchspec.missing_cells(args.workload, payload),
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        layers, bases = spans.layer_metrics(
            spans.TRACER.spans, spans.TRACER.counts, root, modes
        )
        record["layers"] = layers
        record["bases"] = bases
        if args.spans_out:
            run_id = f"{args.workload}-seed{args.seed}-{ready_at:.6f}"
            spans.TRACER.dump(args.spans_out, run_id)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
