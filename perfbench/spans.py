"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public functions of each layer of the ``repro``
package in place (module attributes and class methods) so that every call
records one span: name, start, end, parent span and process.  Spans stay in
memory; :meth:`Tracer.dump` writes them once when the run ends.

Worker processes are forked by ``repro.sim.parallel`` after installation, so
they inherit the wrapped layers.  The wrapped ``parallel_map`` and
``pipelined_map`` hand each task to :class:`TracedTask`, which clears the
worker's inherited buffer, runs the task under a ``parallel.task`` span and
returns the task's spans and counts beside its result in an
:class:`Envelope`; the parent unwraps it before the caller sees the result.

Self time is a span's duration minus the part of it its children cover.
Children are intervals (worker tasks overlap each other, so coverage is
their union), except generator spans such as ``Workload.access_stream``,
which cover only the time spent inside their ``next()`` calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One span: (id, parent id, name, label, start, end, busy, pid).  ``busy``
#: is None for an ordinary call and the seconds spent inside ``next()`` for
#: a generator span; ``label`` carries the mode of replay spans.
Span = Tuple[int, Optional[int], str, Optional[str], float, float, Optional[float], int]

_clock = time.perf_counter


class Tracer:
    """The span buffer and counters of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Parent of spans opened on a thread with no open span (the pool's
        #: result-handler thread persisting checkpoints).
        self.ambient: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else self.ambient

    def call(self, name: str, label: Optional[str], fn: Callable, *args, **kwargs) -> Any:
        return self.span(self.new_id(), name, lambda: fn(*args, **kwargs), label)

    def span(
        self, sid: int, name: str, body: Callable[[], Any], label: Optional[str] = None
    ) -> Any:
        """Run ``body()`` under the span ``sid``."""
        parent = self.current()
        stack = self._stack()
        stack.append(sid)
        start = _clock()
        try:
            return body()
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, parent, name, label, start, end, None, os.getpid()))

    def iterate(self, name: str, gen: Iterator, weigh: Callable[[Any], int]) -> Iterator:
        """Re-yield ``gen`` as one generator span; ``weigh(item)`` adds to
        ``workloads.accesses``."""
        sid = self.new_id()
        parent = self.current()
        busy = 0.0
        first = last = None
        items = 0
        try:
            while True:
                stack = self._stack()
                stack.append(sid)
                start = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last = _clock()
                    stack.pop()
                    busy += last - start
                    if first is None:
                        first = start
                items += weigh(item)
                yield item
        finally:
            gen.close()
            self.counts["workloads.accesses"] += items
            if first is not None:
                self.spans.append((sid, parent, name, None, first, last, busy, os.getpid()))

    def reset_for_task(self) -> None:
        """Forget what a forked worker inherited from its parent."""
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self.ambient = None

    def absorb(self, envelope: "Envelope") -> None:
        if envelope.spans:
            self.spans.extend(envelope.spans)
        if envelope.counts:
            self.counts.update(envelope.counts)
        envelope.spans = envelope.counts = None

    def dump(self, path: Path, run_id: str) -> None:
        records = [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "label": label,
                "start": start,
                "end": end,
                "busy": busy,
                "pid": pid,
                "run": run_id,
            }
            for sid, parent, name, label, start, end, busy, pid in self.spans
        ]
        Path(path).write_text(json.dumps({"run": run_id, "spans": records}))


TRACER = Tracer()


class Envelope:
    """A task result travelling back from a worker with its spans."""

    __slots__ = ("value", "spans", "counts", "sent_at")

    def __init__(self, value: Any, spans: Optional[list], counts: Optional[Counter]) -> None:
        self.value = value
        self.spans = spans
        self.counts = counts
        self.sent_at: Optional[float] = None


def _unwrap(value: Any) -> Any:
    if isinstance(value, Envelope):
        TRACER.absorb(value)
        return value.value
    return value


class TracedTask:
    """Benchmark-side task wrapper: stamps the task's queue wait and run
    time and ships the worker's spans back with the result."""

    def __init__(self, func: Callable, parent: int, submitted: float, owner: int) -> None:
        self.func = func
        self.parent = parent
        self.submitted = submitted
        self.owner = owner

    def __call__(self, task: Any, *carry: Any) -> Envelope:
        submitted = self.submitted
        if carry and isinstance(carry[0], Envelope):
            submitted = carry[0].sent_at or submitted
            carry = (carry[0].value,)
        in_worker = os.getpid() != self.owner
        if in_worker:
            TRACER.reset_for_task()
            TRACER.ambient = self.parent
        started = _clock()
        value = TRACER.call("parallel.task", None, self.func, task, *carry)
        ran = _clock() - started
        TRACER.counts["parallel.tasks"] += 1
        TRACER.counts["parallel.queue_wait_s"] += max(0.0, started - submitted)
        TRACER.counts["parallel.run_s"] += ran
        if not in_worker:
            return Envelope(value, None, None)
        spans, counts = TRACER.spans, TRACER.counts
        TRACER.reset_for_task()
        return Envelope(value, spans, counts)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    import sys

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(owner: Any, attr: str, name: str, after: Optional[Callable] = None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = TRACER.call(name, None, original, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    _replace_everywhere(original, wrapper)


def _wrap_method(
    cls: type,
    attr: str,
    name: str,
    label: Optional[Callable[[Any], str]] = None,
    after: Optional[Callable] = None,
) -> None:
    original = cls.__dict__[attr]
    func = original.__func__ if isinstance(original, classmethod) else original

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tag = label(args[0]) if label is not None else None
        result = TRACER.call(name, tag, func, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(cls, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)


def _wrap_generator(cls: type, attr: str, name: str, weigh: Callable[[Any], int]) -> None:
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return TRACER.iterate(name, original(*args, **kwargs), weigh)

    setattr(cls, attr, wrapper)


def _count(key: str, amount: Callable[[tuple, dict, Any], float]) -> Callable:
    def after(args: tuple, kwargs: dict, result: Any) -> None:
        TRACER.counts[key] += amount(args, kwargs, result)

    return after


def _wrap_pools() -> None:
    from repro.sim import parallel
    from repro.sim.parallel import resolve_jobs

    original_map = parallel.parallel_map
    original_pipeline = parallel.pipelined_map

    def pool_wall(started: float, jobs: Optional[int], width: int) -> None:
        workers = max(1, min(resolve_jobs(jobs), width))
        TRACER.counts["parallel.capacity_s"] += (_clock() - started) * workers

    @functools.wraps(original_map)
    def parallel_map(func, tasks, jobs=None, policy=None, manifest=None):
        started = _clock()
        sid = TRACER.new_id()
        task = TracedTask(func, sid, started, os.getpid())

        def body():
            return original_map(task, tasks, jobs=jobs, policy=policy, manifest=manifest)

        results = TRACER.span(sid, "parallel.map", body)
        pool_wall(started, jobs, len(tasks))
        return [_unwrap(value) for value in results]

    @functools.wraps(original_pipeline)
    def pipelined_map(func, chains, jobs=None, policy=None, manifest=None,
                      initials=None, on_carry=None):
        started = _clock()
        sid = TRACER.new_id()
        task = TracedTask(func, sid, started, os.getpid())

        def hook(chain_index: int, step_index: int, carry: Any) -> None:
            if isinstance(carry, Envelope):
                TRACER.absorb(carry)
                carry.sent_at = _clock()
                carry = carry.value
            if on_carry is not None:
                on_carry(chain_index, step_index, carry)

        def body():
            previous, TRACER.ambient = TRACER.ambient, sid
            try:
                return original_pipeline(
                    task, chains, jobs=jobs, policy=policy, manifest=manifest,
                    initials=initials, on_carry=hook,
                )
            finally:
                TRACER.ambient = previous

        finals = TRACER.span(sid, "parallel.pipeline", body)
        pool_wall(started, jobs, len(chains))
        return [_unwrap(value) for value in finals]

    _replace_everywhere(original_map, parallel_map)
    _replace_everywhere(original_pipeline, pipelined_map)


def install() -> None:
    """Wrap every measured layer of the ``repro`` package.  Call it once,
    before the first layer call."""
    from repro.core.toleo import ToleoDevice
    from repro.core.trip import TripPage
    from repro.sim import distill, replaycore, store
    from repro.sim.engine import EngineState, SimulationEngine
    from repro.sim.faults import FailureManifest
    from repro.workloads import registry
    from repro.workloads.base import Workload

    # workloads
    _wrap_function(registry, "get_workload", "workloads.get_workload")
    _wrap_function(registry, "capture_trace", "workloads.capture_trace")
    _wrap_method(
        Workload, "capture", "workloads.capture",
        after=_count("workloads.accesses", lambda a, k, r: len(r)),
    )
    _wrap_generator(Workload, "stream", "workloads.stream", len)
    _wrap_generator(Workload, "access_stream", "workloads.access_stream", lambda item: 1)

    # distill
    _wrap_function(distill, "distilled_events", "distill.distilled_events")
    _wrap_function(distill, "stream_event_slices", "distill.stream_event_slices")
    _wrap_method(distill.HierarchyDistiller, "distill", "distill.distill")

    def distilled(args: tuple, kwargs: dict, stream: Any) -> None:
        start, stop = args[2], args[3]
        TRACER.counts["distill.events"] += len(stream)
        TRACER.counts["distill.accesses"] += stop - start

    _wrap_method(distill.HierarchyDistiller, "advance", "distill.advance", after=distilled)

    # replaycore
    def tier_counted(args: tuple, kwargs: dict, tier: Any) -> None:
        TRACER.counts["replaycore.mac_events"] += tier.num_events
        TRACER.counts["replaycore.mac_read_hits"] += sum(tier.read_hits)

    _wrap_function(replaycore, "distilled_mac_tier", "replaycore.mac_tier")
    _wrap_function(replaycore, "compute_mac_tier", "replaycore.mac_tier", after=tier_counted)
    _wrap_method(
        replaycore.BatchReplayEngine, "replay", "replaycore.replay",
        label=lambda batch: batch.engine.params.label,
    )

    # engine
    def mode_of(engine: Any) -> str:
        return engine.params.label

    _wrap_method(SimulationEngine, "begin", "engine.begin", label=mode_of)
    _wrap_method(SimulationEngine, "finish", "engine.finish", label=mode_of)
    _wrap_method(SimulationEngine, "replay_events", "engine.replay_events", label=mode_of)
    _wrap_method(SimulationEngine, "replay", "engine.replay", label=mode_of)

    # shard
    def checkpointed(args: tuple, kwargs: dict, blob: bytes) -> None:
        TRACER.counts["shard.handoffs"] += 1
        TRACER.counts["shard.checkpoint_bytes"] += len(blob)

    _wrap_method(EngineState, "serialize", "shard.serialize", after=checkpointed)
    _wrap_method(EngineState, "deserialize", "shard.deserialize")

    # store
    def got(args: tuple, kwargs: dict, value: Any) -> None:
        TRACER.counts["store.gets"] += 1
        TRACER.counts["store.hits"] += value is not None

    _wrap_method(store.ResultStore, "get", "store.get", after=got)
    _wrap_method(store.ResultStore, "__contains__", "store.contains")
    _wrap_method(
        store.ResultStore, "put", "store.put",
        after=_count("store.puts", lambda a, k, r: 1),
    )
    write_row = store.ResultStore._write_row

    @functools.wraps(write_row)
    def counted_write_row(self, conn, key, payload_text, *args, **kwargs):
        TRACER.counts["store.bytes_written"] += len(payload_text)
        return write_row(self, conn, key, payload_text, *args, **kwargs)

    store.ResultStore._write_row = counted_write_row

    # parallel
    _wrap_pools()
    note_retry = FailureManifest.note_retry

    def counted_retry(self):
        TRACER.counts["parallel.retries"] += 1
        return note_retry(self)

    FailureManifest.note_retry = counted_retry

    # core
    _wrap_method(
        ToleoDevice, "update", "core.toleo.update",
        after=_count("core.toleo.updates", lambda a, k, r: 1),
    )
    page_init = TripPage.__init__

    def counted_page_init(self, *args, **kwargs):
        TRACER.counts["core.trip.pages"] += 1
        page_init(self, *args, **kwargs)

    TripPage.__init__ = counted_page_init


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    result: Dict[int, float] = {}
    for sid, _, _, _, start, end, busy, _ in spans:
        own = busy if busy is not None else end - start
        covered = 0.0
        intervals = []
        for child in children.get(sid, ()):
            if child[6] is not None:
                covered += child[6]
            else:
                intervals.append((max(start, child[4]), min(end, child[5])))
        intervals.sort()
        reach = float("-inf")
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[sid] = max(0.0, own - covered)
    return result


def mode_metric(label: str) -> str:
    """``engine.replay.<mode>_s`` for a mode label (``+`` becomes ``-``)."""
    return f"engine.replay.{label.replace('+', '-')}_s"


#: Layer self-time metrics, keyed by the span names that feed them.
_LAYER_TIME = {
    "workloads.get_workload": "workloads.capture_s",
    "workloads.capture_trace": "workloads.capture_s",
    "workloads.capture": "workloads.capture_s",
    "workloads.stream": "workloads.capture_s",
    "workloads.access_stream": "workloads.capture_s",
    "distill.distilled_events": "distill.distill_s",
    "distill.stream_event_slices": "distill.distill_s",
    "distill.distill": "distill.distill_s",
    "distill.advance": "distill.distill_s",
    "replaycore.mac_tier": "replaycore.mac_tier_s",
    "engine.begin": "engine.begin_s",
    "engine.finish": "engine.finish_s",
    "engine.replay_events": "engine.scalar_replay_s",
    "shard.serialize": "shard.serialize_s",
    "shard.deserialize": "shard.deserialize_s",
    "store.get": "store.get_s",
    "store.contains": "store.get_s",
    "store.put": "store.put_s",
    "core.toleo.update": "core.toleo.update_s",
}

_REPLAY_SPANS = ("replaycore.replay", "engine.replay_events", "engine.replay")


def layer_metrics(
    spans: List[Span], counts: Counter, root: int, modes: List[str]
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer self times and counts of one traced run.

    Returns ``(metrics, bases)``: ``bases`` names the denominator of every
    ratio.  ``root`` is the span of the harness entry-point call; its self
    time is the time no layer span covers.
    """
    from repro.sim.configs import mode_parameters
    from repro.sim.replaycore import mode_vector_profile

    own = self_times(spans)
    metrics: Dict[str, float] = {name: 0.0 for name in set(_LAYER_TIME.values())}
    metrics.update({"replaycore.batch_s": 0.0, "replaycore.hybrid_s": 0.0})
    metrics.update({mode_metric(label): 0.0 for label in modes})
    for sid, _, name, label, *_ in spans:
        seconds = own[sid]
        if name in _LAYER_TIME:
            metrics[_LAYER_TIME[name]] += seconds
        if name in _REPLAY_SPANS:
            metrics[mode_metric(label)] = metrics.get(mode_metric(label), 0.0) + seconds
        if name == "replaycore.replay":
            profile = mode_vector_profile(mode_parameters(label))
            key = f"replaycore.{profile}_s"
            metrics[key] = metrics.get(key, 0.0) + seconds

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    updates = counts["core.toleo.updates"]
    metrics.update(
        {
            "workloads.accesses": counts["workloads.accesses"],
            "distill.events": counts["distill.events"],
            "distill.events_per_access": ratio(
                counts["distill.events"], counts["distill.accesses"]
            ),
            "replaycore.mac_read_hit_ratio": ratio(
                counts["replaycore.mac_read_hits"], counts["replaycore.mac_events"]
            ),
            "shard.handoffs": counts["shard.handoffs"],
            "shard.checkpoint_bytes": counts["shard.checkpoint_bytes"],
            "store.gets": counts["store.gets"],
            "store.puts": counts["store.puts"],
            "store.hit_ratio": ratio(counts["store.hits"], counts["store.gets"]),
            "store.bytes_written": counts["store.bytes_written"],
            "parallel.tasks": counts["parallel.tasks"],
            "parallel.queue_wait_s": counts["parallel.queue_wait_s"],
            "parallel.run_s": counts["parallel.run_s"],
            "parallel.busy_ratio": ratio(
                counts["parallel.run_s"], counts["parallel.capacity_s"]
            ),
            "parallel.retries": counts["parallel.retries"],
            "core.toleo.updates": updates,
            "core.toleo.update_us": ratio(metrics["core.toleo.update_s"], updates) * 1e6,
            "core.trip.pages": counts["core.trip.pages"],
            "trace.uncovered_s": own[root],
        }
    )
    bases = {
        "distill.events_per_access": f"{counts['distill.accesses']} distilled accesses",
        "replaycore.mac_read_hit_ratio": f"{counts['replaycore.mac_events']} MAC-tier events",
        "store.hit_ratio": f"{counts['store.gets']} store gets",
        "parallel.busy_ratio": (
            f"{counts['parallel.capacity_s']:.4f} s of pool capacity (jobs x pool wall)"
        ),
        "core.toleo.update_us": f"{updates} Toleo updates",
    }
    return metrics, bases
