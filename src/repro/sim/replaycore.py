"""Vectorized event-replay core: numpy batch kernels over miss-event columns.

PR 5 reduced per-mode work to a scalar Python loop over the distilled
:class:`~repro.sim.distill.MissEventStream`.  This module removes the loop
for every component whose per-event behaviour can be decided up front:

* :class:`BatchReplayEngine` replays a window of events with numpy kernels
  -- encryption latency, MAC fetches, counter-tree walks, EPC paging,
  InvisiMem packet inflation and the engine's own rack data fetch and device
  tallies -- and runs only the *residual* stateful components (Toleo stealth
  freshness, ``access_period`` samplers, unknown scalar-safe types) through
  the original scalar hook loop.

* **Verdict tiers** are second distillation tiers.  A stateful component's
  verdict for each event -- does the MAC cache hit, how many tree levels
  does the walk fetch, does the page fault and which dirty page does it
  evict -- depends only on the event sequence and the component's
  *geometry*, never on latencies, engine options or the mode's other
  components.  Each :class:`VerdictTier` is therefore simulated once per
  ``(events_key, geometry)`` into the :class:`~repro.sim.store.ResultStore`
  and the batch kernels apply the latencies at fold time, so sweep points
  that vary rack latency or memory-level parallelism share the entries:

  - :class:`MacTier` (``mactier``): the MAC cache, shared by every
    MAC-bearing mode of one MAC geometry (CI, Toleo, CIF-Tree, InvisiMem...);
  - :class:`TreeTier` (``treetier``): the counter-tree metadata-cache walk
    depths, keyed by tree shape and cache geometry;
  - :class:`EpcTier` (``epctier``): EPC page faults and dirty victims,
    keyed by the EPC size in pages.

The contract is the repo's differential discipline: the vectorized replay is
**bit-identical** to :meth:`SimulationEngine.replay_events` (which is itself
bit-identical to the full serial replay) for every registered mode and every
shard width.  Two invariants make that hold:

* **Integer counters commute.**  Byte counts, device tallies, fetch and
  fault counters are sums of integers, so a kernel may credit a whole
  window at once, in any order relative to the other components.
* **Each float accumulator is folded in exactly one place.**  ``np.sum``
  uses pairwise summation -- a different rounding order than the scalar
  ``+=`` loop -- so kernels never add floats themselves: they *charge*
  per-event terms to a :class:`LatencyBreakdown` field with
  :meth:`EventBatch.charge`, and the engine folds each field once per window
  with :func:`_sequential_sum`, a seeded ``np.add.accumulate`` scan (the
  loop's own left fold).  When several components write one field (the
  counter tree and EPC paging both write ``freshness_ns`` in Client-SGX)
  their charges are merged into one column in event order, then component
  order within an event -- exactly the order the scalar hooks add them.  A
  field written by a *residual* scalar component belongs to the residual
  loop: every kernel that would charge it is demoted to the loop too (Toleo
  freshness keeps Toleo+Tree's counter tree scalar).

Windowed replay composes: seeding each window's scan with the running
accumulator keeps a sharded chain one unbroken fold, so checkpointed chains
match too.  One caveat: the vectorized path never touches a batched
component's own cache objects (the tiers stand in for the lookups), so a
checkpoint produced by a vectorized window can only be resumed vectorized.
A scalar window *can* be resumed vectorized -- a tier's simulator state at
any event position equals the real component's.  Drivers use one strategy
per chain, so this never arises in practice.

Everything degrades gracefully: without numpy (:data:`HAVE_NUMPY` False) or
with an unknown component type in the stack, :func:`vectorizable` returns
False and callers take the scalar path.  Third-party components opt in via
:func:`declare_scalar_safe` (run in the residual loop) or
:func:`register_batch_kernel` (handled by a custom batch kernel).
"""

from __future__ import annotations

import base64
import dataclasses
import heapq
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.core.config import CACHE_BLOCK_BYTES, MACS_PER_BLOCK, PAGE_BYTES, SystemConfig
from repro.sim.distill import WB_NONE, MissEventStream, events_key
from repro.sim.path import (
    TREE_LEVEL_STRIDE,
    TREE_METADATA_BASE,
    CounterTreeComponent,
    EncryptionComponent,
    EpcPagingComponent,
    InvisiMemComponent,
    MacIntegrityComponent,
    PathComponent,
    StealthFreshnessComponent,
)
from repro.sim.results import LatencyBreakdown
from repro.sim.store import ResultStore, content_key, default_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.devices import RackMemory
    from repro.sim.engine import EngineState, SimulationEngine
    from repro.sim.path import AccessContext

try:  # numpy is deliberately optional: the package never requires it, the
    # vectorized path simply switches itself off when it is absent.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    np = None

#: Whether the vectorized replay path is available at all.
HAVE_NUMPY = np is not None


# ---------------------------------------------------------------------------
# Bit-identical float accumulation
# ---------------------------------------------------------------------------


def _sequential_sum(initial: float, values: "np.ndarray") -> float:
    """Fold ``values`` into ``initial`` exactly like a scalar ``+=`` loop.

    ``np.sum`` uses pairwise summation -- a different rounding order than the
    left fold the scalar replay performs -- so it would break bit-identity.
    ``np.add.accumulate`` is a defined sequential left-to-right scan; seeding
    element 0 with the running accumulator makes the whole run (across batch
    windows and shard checkpoints) one unbroken fold.
    """
    if len(values) == 0:
        return initial
    seeded = np.empty(len(values) + 1, dtype=np.float64)
    seeded[0] = initial
    seeded[1:] = values
    return float(np.add.accumulate(seeded)[-1])


def _merge_columns(num_events: int, parts: Sequence[Tuple[Any, "np.ndarray"]]) -> "np.ndarray":
    """Interleave several writers' per-event terms into one fold column.

    ``parts`` are ``(counts, values)`` charges in component order: writer
    ``k`` contributes ``counts[e]`` consecutive terms to event ``e``
    (``counts`` None means one term per event).  The result lists event 0's
    terms writer by writer, then event 1's, ... -- the order in which the
    scalar hooks would have added them.
    """
    if len(parts) == 1:
        return parts[0][1]
    counts = [
        np.ones(num_events, dtype=np.int64) if c is None else c.astype(np.int64)
        for c, _ in parts
    ]
    # Segment (event e, writer k) starts after every earlier event's terms
    # and writer k's predecessors within event e: an exclusive scan over the
    # event-major flattening of the [event, writer] count matrix.
    flat = np.stack(counts, axis=1).ravel()
    starts = (np.cumsum(flat) - flat).reshape(num_events, len(parts))
    merged = np.empty(int(flat.sum()), dtype=np.float64)
    for k, (count, (_, values)) in enumerate(zip(counts, parts)):
        # Term j of writer k sits in event e at local rank j - exclusive(e).
        shift = starts[:, k] - (np.cumsum(count) - count)
        merged[np.repeat(shift, count) + np.arange(len(values))] = values
    return merged


# ---------------------------------------------------------------------------
# Verdict tiers (second distillation tier, one per stateful component kind)
# ---------------------------------------------------------------------------

#: Accumulated wall-clock seconds spent *computing* MAC tiers (store hits add
#: nothing).  ``repro bench`` subtracts this from its replay throughput so the
#: footer reports replay speed, mirroring the store-served-point exclusion
#: in ``repro sweep``.  The tree and EPC tiers are built lazily inside the
#: replay of the one mode each geometry serves, so they count as replay.
_PRECOMPUTE_SECONDS = 0.0


def reset_precompute_seconds() -> None:
    """Zero the MAC-tier precompute clock (start of a timed run)."""
    global _PRECOMPUTE_SECONDS
    _PRECOMPUTE_SECONDS = 0.0


def precompute_seconds() -> float:
    """Seconds spent computing MAC tiers since the last reset."""
    return _PRECOMPUTE_SECONDS


TierT = TypeVar("TierT", bound="VerdictTier")


@dataclass
class VerdictTier:
    """One stateful component's verdicts over a whole event stream.

    Subclasses declare their packed ``columns`` (name -> ``array`` typecode).
    ``"B"`` columns hold one verdict byte per event, as a ``bytearray``;
    any other typecode is a free-length side array (an ``array.array``).
    The payload, validation and numpy views are shared; a subclass adds
    only its fields, its column spec and its simulator.
    """

    #: Store-key namespace of the tier kind (``"<kind>-<digest>"`` keys).
    kind: ClassVar[str] = ""
    #: Column name -> ``array`` typecode, in payload order.
    columns: ClassVar[Dict[str, str]] = {}

    num_events: int

    def validate(self) -> None:
        for name, typecode in self.columns.items():
            if typecode == "B" and len(getattr(self, name)) != self.num_events:
                raise ValueError(
                    f"tier arrays disagree with num_events={self.num_events}: "
                    f"{len(getattr(self, name))} {name} entries"
                )

    def view(self, name: str) -> "np.ndarray":
        """Read-only zero-copy numpy view of one column."""
        # numpy's dtype characters are the array typecodes ("B", "Q").
        view = np.frombuffer(getattr(self, name), dtype=self.columns[name])
        view.flags.writeable = False
        return view

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"num_events": self.num_events}
        for name in self.columns:
            payload[name] = base64.b64encode(bytes(getattr(self, name))).decode("ascii")
        return payload

    @classmethod
    def from_payload(cls: "type[TierT]", payload: Dict[str, Any]) -> TierT:
        fields: Dict[str, Any] = {}
        for name, typecode in cls.columns.items():
            raw = base64.b64decode(payload[name])
            if typecode == "B":
                fields[name] = bytearray(raw)
            else:
                fields[name] = array(typecode)
                fields[name].frombytes(raw)
        tier = cls(num_events=int(payload["num_events"]), **fields)
        tier.validate()
        return tier


def _events_key_of(events: MissEventStream, config: Optional[SystemConfig]) -> str:
    return events_key(events.name, events.scale, events.seed, events.num_accesses, config)


def _distilled_tier(
    tier_type: "type[TierT]",
    key: str,
    events: MissEventStream,
    compute: Callable[[], TierT],
    store: Optional[ResultStore],
) -> TierT:
    """Serve a tier from the store, computing and persisting it on a miss."""
    if events.start_index != 0:
        raise ValueError(
            f"the {tier_type.kind} verdict tier needs a full-run event stream "
            "(start_index 0)"
        )
    if store is None:
        store = default_store()
    cached = store.get(key, decoder=tier_type.from_payload)
    if cached is not None and cached.num_events == len(events):
        return cached
    tier = compute()
    store.put(key, tier, encoder=tier_type.to_payload)
    return tier


# -- MAC tier ----------------------------------------------------------------


@dataclass
class MacTier(VerdictTier):
    """The MAC cache's verdict for every event of one stream.

    ``read_hits[i]`` / ``wb_hits[i]`` are 1 when event ``i``'s read-path /
    writeback-path MAC-cache lookup hits (``wb_hits`` is 0 for events with
    no writeback).  The sequence depends only on the event addresses and the
    MAC-cache geometry -- not on a mode's ``fetch_bytes`` -- so one tier
    serves every mode in the same MAC configuration family.
    """

    kind: ClassVar[str] = "mactier"
    columns: ClassVar[Dict[str, str]] = {"read_hits": "B", "wb_hits": "B"}

    read_hits: bytearray
    wb_hits: bytearray

    @property
    def read_hits_view(self) -> "np.ndarray":
        """Read-only ``uint8`` view of the read-path hit flags."""
        return self.view("read_hits")

    @property
    def wb_hits_view(self) -> "np.ndarray":
        """Read-only ``uint8`` view of the writeback-path hit flags."""
        return self.view("wb_hits")


def mac_geometry_fields(config: Optional[SystemConfig] = None) -> Dict[str, int]:
    """The MAC-cache geometry a tier is keyed by."""
    cfg = config if config is not None else SystemConfig()
    return {
        "cache_bytes": cfg.mac_cache_bytes,
        "cache_ways": cfg.mac_cache_ways,
        "line_bytes": CACHE_BLOCK_BYTES,
        "macs_per_block": MACS_PER_BLOCK,
    }


def mac_tier_key(events: MissEventStream, config: Optional[SystemConfig] = None) -> str:
    """Store key of the MAC tier for one full-run stream under one config.

    Folds in the stream's own :func:`~repro.sim.distill.events_key` (trace
    identity + hierarchy geometry) plus the MAC-cache geometry -- the *mode
    family* key: every mode sharing a MAC configuration maps here.
    """
    return content_key(
        MacTier.kind,
        events=_events_key_of(events, config),
        mac=mac_geometry_fields(config),
    )


def compute_mac_tier(events: MissEventStream, config: Optional[SystemConfig] = None) -> MacTier:
    """Simulate the MAC cache over the whole event sequence, once.

    Replicates :class:`~repro.cache.cache.SetAssociativeCache` LRU exactly
    (the :class:`~repro.sim.distill.HierarchyDistiller` idiom: flat per-set
    dicts, move-to-end on hit, evict the first key at way capacity).  Dirty
    bits are not tracked: dirtiness only feeds the ``dirty_evictions``
    statistic, which no lookup verdict -- and no simulation result -- reads.

    The wall-clock time spent here is added to the precompute clock (see
    :func:`precompute_seconds`) so ``repro bench`` can exclude it from the
    replay throughput it reports.
    """
    started = time.perf_counter()
    cfg = config if config is not None else SystemConfig()
    line_bytes = CACHE_BLOCK_BYTES
    lines = max(1, cfg.mac_cache_bytes // line_bytes)
    ways = min(cfg.mac_cache_ways, lines)
    num_sets = max(1, lines // ways)
    sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
    read_hits = bytearray(len(events))
    wb_hits = bytearray(len(events))
    # MacCache.mac_block_address(a) = (a // line // MACS_PER_BLOCK) * line;
    # SetAssociativeCache then re-divides by line, so the effective block
    # index is a // line // MACS_PER_BLOCK.
    divisor = line_bytes * MACS_PER_BLOCK
    for pos, (address, wb) in enumerate(zip(events.addresses, events.writeback_addresses)):
        block = address // divisor
        tags = sets[block % num_sets]
        tag = block // num_sets
        if tag in tags:
            tags[tag] = tags.pop(tag)
            read_hits[pos] = 1
        else:
            if len(tags) >= ways:
                del tags[next(iter(tags))]
            tags[tag] = True
        if wb != WB_NONE:
            block = wb // divisor
            tags = sets[block % num_sets]
            tag = block // num_sets
            if tag in tags:
                tags[tag] = tags.pop(tag)
                wb_hits[pos] = 1
            else:
                if len(tags) >= ways:
                    del tags[next(iter(tags))]
                tags[tag] = True
    tier = MacTier(num_events=len(events), read_hits=read_hits, wb_hits=wb_hits)
    global _PRECOMPUTE_SECONDS
    _PRECOMPUTE_SECONDS += time.perf_counter() - started
    return tier


def distilled_mac_tier(
    events: MissEventStream,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> MacTier:
    """The MAC tier for ``events``, served from the store when present."""
    return _distilled_tier(
        MacTier,
        mac_tier_key(events, config),
        events,
        lambda: compute_mac_tier(events, config),
        store,
    )


# -- counter-tree tier -------------------------------------------------------


@dataclass(frozen=True)
class TreeGeometry:
    """Everything a counter-tree walk's verdicts depend on.

    The tree shape (``arity``, bytes of data per leaf entry, ``levels`` for
    the protected size) and the metadata cache's set/way/line geometry.
    Latencies and the rack's page mapping are applied at fold time.
    """

    arity: int
    leaf_bytes: int
    levels: int
    sets: int
    ways: int
    line_bytes: int

    @classmethod
    def of(cls, component: CounterTreeComponent) -> "TreeGeometry":
        cache = component.cache
        return cls(
            arity=component.tree.arity,
            leaf_bytes=component.tree.leaf.data_bytes_per_entry,
            levels=component.levels,
            sets=cache.num_sets,
            ways=cache.ways,
            line_bytes=cache.line_bytes,
        )


@dataclass
class TreeTier(VerdictTier):
    """How many tree levels each event's walks fetch.

    ``read_depths[i]`` / ``wb_depths[i]`` count the metadata-cache misses of
    event ``i``'s read-path / writeback-path walk (0 when the leaf counter
    hits, ``levels`` when no ancestor is cached; ``wb_depths`` is 0 for
    events with no writeback).  A walk with depth below ``levels`` ended on
    one cache hit.
    """

    kind: ClassVar[str] = "treetier"
    columns: ClassVar[Dict[str, str]] = {"read_depths": "B", "wb_depths": "B"}

    read_depths: bytearray
    wb_depths: bytearray


def tree_tier_key(
    events: MissEventStream, geometry: TreeGeometry, config: Optional[SystemConfig] = None
) -> str:
    """Store key of one stream's tree tier: ``events_key`` + tree geometry."""
    return content_key(
        TreeTier.kind,
        events=_events_key_of(events, config),
        tree=dataclasses.asdict(geometry),
    )


def compute_tree_tier(events: MissEventStream, geometry: TreeGeometry) -> TreeTier:
    """Walk the counter tree over the whole event sequence, once.

    Mirrors :meth:`~repro.sim.path.CounterTreeComponent._walk` on the
    flat-dict LRU of :func:`compute_mac_tier`: from the leaf up, a cached
    node ends the walk, a missing one is inserted and the walk climbs to
    its parent.
    """
    num_sets, ways, arity = geometry.sets, geometry.ways, geometry.arity
    leaf_bytes, line_bytes = geometry.leaf_bytes, geometry.line_bytes
    level_bases = [
        TREE_METADATA_BASE + level * TREE_LEVEL_STRIDE for level in range(geometry.levels)
    ]
    sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]

    def walk(address: int) -> int:
        index = address // leaf_bytes
        depth = 0
        for base in level_bases:
            block = (base + index * CACHE_BLOCK_BYTES) // line_bytes
            tags = sets[block % num_sets]
            tag = block // num_sets
            if tag in tags:
                tags[tag] = tags.pop(tag)
                break
            if len(tags) >= ways:
                del tags[next(iter(tags))]
            tags[tag] = True
            depth += 1
            index //= arity
        return depth

    read_depths = bytearray(len(events))
    wb_depths = bytearray(len(events))
    for pos, (address, wb) in enumerate(zip(events.addresses, events.writeback_addresses)):
        read_depths[pos] = walk(address)
        if wb != WB_NONE:
            wb_depths[pos] = walk(wb)
    return TreeTier(num_events=len(events), read_depths=read_depths, wb_depths=wb_depths)


def distilled_tree_tier(
    events: MissEventStream,
    geometry: TreeGeometry,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> TreeTier:
    """The tree tier for ``events``, served from the store when present."""
    return _distilled_tier(
        TreeTier,
        tree_tier_key(events, geometry, config),
        events,
        lambda: compute_tree_tier(events, geometry),
        store,
    )


# -- EPC tier ----------------------------------------------------------------

#: EPC verdicts per touch: the page was resident, it faulted in, or it
#: faulted in and evicted a dirty page (whose number is in ``victims``).
EPC_RESIDENT = 0
EPC_FAULT = 1
EPC_FAULT_DIRTY_EVICTION = 2


@dataclass
class EpcTier(VerdictTier):
    """EPC residency verdicts for every event of one stream.

    ``read_verdicts[i]`` / ``wb_verdicts[i]`` hold the ``EPC_*`` verdict of
    event ``i``'s read-path / writeback-path touch (``EPC_RESIDENT`` for
    events with no writeback).  ``victims`` lists the dirty pages the
    ``EPC_FAULT_DIRTY_EVICTION`` touches evicted, in touch order (an
    event's read touch before its writeback touch).  Clean evictions cost
    nothing, so they are not recorded.
    """

    kind: ClassVar[str] = "epctier"
    columns: ClassVar[Dict[str, str]] = {"read_verdicts": "B", "wb_verdicts": "B", "victims": "Q"}

    read_verdicts: bytearray
    wb_verdicts: bytearray
    victims: array

    def validate(self) -> None:
        super().validate()
        evictions = self.read_verdicts.count(EPC_FAULT_DIRTY_EVICTION) + self.wb_verdicts.count(
            EPC_FAULT_DIRTY_EVICTION
        )
        if evictions != len(self.victims):
            raise ValueError(
                f"{evictions} dirty-eviction verdicts but {len(self.victims)} victims"
            )


def epc_tier_key(
    events: MissEventStream, epc_pages: int, config: Optional[SystemConfig] = None
) -> str:
    """Store key of one stream's EPC tier: ``events_key`` + EPC size."""
    return content_key(
        EpcTier.kind, events=_events_key_of(events, config), epc_pages=epc_pages
    )


def compute_epc_tier(events: MissEventStream, epc_pages: int) -> EpcTier:
    """Run the EPC residency set over the whole event sequence, once.

    Mirrors :meth:`~repro.sim.path.EpcPagingComponent._touch`: an LRU dict
    of resident pages with their dirty bits, one touch per read miss and
    one (writing) touch per writeback.
    """
    resident: Dict[int, bool] = {}
    victims = array("Q")

    def touch(page: int, is_write: bool) -> int:
        if page in resident:
            dirty = resident.pop(page)
            resident[page] = dirty or is_write
            return EPC_RESIDENT
        resident[page] = is_write
        if len(resident) > epc_pages:
            evicted = next(iter(resident))
            if resident.pop(evicted):
                victims.append(evicted)
                return EPC_FAULT_DIRTY_EVICTION
        return EPC_FAULT

    read_verdicts = bytearray(len(events))
    wb_verdicts = bytearray(len(events))
    for pos, (address, wb) in enumerate(zip(events.addresses, events.writeback_addresses)):
        read_verdicts[pos] = touch(address // PAGE_BYTES, False)
        if wb != WB_NONE:
            wb_verdicts[pos] = touch(wb // PAGE_BYTES, True)
    return EpcTier(
        num_events=len(events),
        read_verdicts=read_verdicts,
        wb_verdicts=wb_verdicts,
        victims=victims,
    )


def distilled_epc_tier(
    events: MissEventStream,
    epc_pages: int,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> EpcTier:
    """The EPC tier for ``events``, served from the store when present."""
    return _distilled_tier(
        EpcTier,
        epc_tier_key(events, epc_pages, config),
        events,
        lambda: compute_epc_tier(events, epc_pages),
        store,
    )


# ---------------------------------------------------------------------------
# Event batches and batch kernels
# ---------------------------------------------------------------------------


class EventBatch:
    """One replay window's events in packed numpy column form.

    Built once per :meth:`BatchReplayEngine.replay` call and shared by every
    batch kernel: ``indices`` / ``addresses`` / ``writes`` / ``writebacks``
    are read-only column slices over ``[lo, hi)`` of the stream; ``wb_mask``
    selects the events with a dirty eviction and ``wb_addresses`` their
    (compacted) writeback addresses, in event order.  Kernels add float
    terms through :meth:`charge`; :meth:`fold` applies them.
    """

    __slots__ = (
        "lo",
        "hi",
        "indices",
        "addresses",
        "writes",
        "writebacks",
        "wb_mask",
        "wb_addresses",
        "charges",
    )

    def __init__(self, events: MissEventStream, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.indices = events.index_view[lo:hi]
        self.addresses = events.address_view[lo:hi]
        self.writes = events.write_view[lo:hi]
        self.writebacks = events.writeback_view[lo:hi]
        self.wb_mask = self.writebacks != WB_NONE
        self.wb_addresses = self.writebacks[self.wb_mask]
        self.charges: Dict[str, List[Tuple[Any, "np.ndarray"]]] = {}

    @property
    def num_events(self) -> int:
        return len(self.addresses)

    @property
    def num_writebacks(self) -> int:
        return len(self.wb_addresses)

    def charge(
        self, field: str, values: "np.ndarray", counts: Optional["np.ndarray"] = None
    ) -> None:
        """Add per-event terms to the ``LatencyBreakdown`` field ``field``.

        ``values`` lists the terms in event order; ``counts[e]`` says how
        many of them belong to event ``e`` (None: exactly one per event).
        Charges to one field from several kernels are merged by
        :func:`_merge_columns` in the order the kernels charged them -- the
        component stack order -- and folded once by :meth:`fold`.
        """
        expected = self.num_events if counts is None else int(counts.sum())
        if len(values) != expected:
            raise ValueError(f"{len(values)} {field} terms charged, counts say {expected}")
        self.charges.setdefault(field, []).append((counts, values))

    def fold(self, latency: LatencyBreakdown) -> None:
        """Fold every charged field into ``latency``: one scan per field."""
        for field, parts in self.charges.items():
            merged = _merge_columns(self.num_events, parts)
            setattr(latency, field, _sequential_sum(getattr(latency, field), merged))
        self.charges.clear()


#: A batch kernel applies one component's whole-window contribution: it
#: credits integer counters directly and charges float terms through
#: :meth:`EventBatch.charge` (never folding a float itself).
BatchKernel = Callable[["BatchReplayEngine", PathComponent, "AccessContext", EventBatch], None]


def _cxl_mask(addresses: "np.ndarray", page_bytes: int, cxl_period: int) -> "np.ndarray":
    """Which addresses the CXL pool serves (RackMemory.region_of, columnar)."""
    return (addresses // page_bytes) % cxl_period == 0


def _rack_latency(rack: "RackMemory", cxl: "np.ndarray") -> "np.ndarray":
    """Per-access device latency, as ``rack.access`` returns it."""
    return np.where(cxl, rack.pool.latency_ns, rack.local.latency_ns)


def _credit_devices(
    rack: "RackMemory", cxl: "np.ndarray", nbytes: int, is_write: bool
) -> None:
    """Tally ``len(cxl)`` accesses of ``nbytes`` each, as ``rack.access`` would."""
    pool_count = int(np.count_nonzero(cxl))
    for stats, count in ((rack.pool.stats, pool_count), (rack.local.stats, len(cxl) - pool_count)):
        if is_write:
            stats.writes += count
            stats.bytes_written += count * nbytes
        else:
            stats.reads += count
            stats.bytes_read += count * nbytes


def _encryption_kernel(
    replay: "BatchReplayEngine",
    component: EncryptionComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # One constant AES latency per read miss.  n float adds of c are NOT
    # n * c bit-for-bit, hence a charged column rather than a product.
    batch.charge(
        "decryption_ns", np.full(batch.num_events, component.aes_latency_ns, dtype=np.float64)
    )


def _invisimem_kernel(
    replay: "BatchReplayEngine",
    component: InvisiMemComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # _inflate() fires on both the read and writeback paths; the added
    # latency only on reads.
    per_access = batch.num_events + batch.num_writebacks
    ctx.traffic.data_bytes += per_access * component.packet_overhead_bytes
    ctx.traffic.dummy_bytes += per_access * component.dummy_bytes_per_access
    batch.charge(
        "side_channel_ns",
        np.full(batch.num_events, component.added_latency_ns, dtype=np.float64),
    )


def _mac_integrity_kernel(
    replay: "BatchReplayEngine",
    component: MacIntegrityComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # The MAC tier stands in for the cache lookups; everything else is the
    # scalar hooks' arithmetic, batched.  Device classification uses the
    # *data* (or writeback) address, exactly as rack.access(ctx.address) did.
    tier = replay.mac_tier()
    lo, hi = batch.lo, batch.hi
    read_misses = tier.read_hits_view[lo:hi] == 0
    wb_hit_flags = tier.wb_hits_view[lo:hi] != 0

    rack = ctx.rack
    page_bytes = rack.config.toleo.page_bytes
    fetch_bytes = component.fetch_bytes

    read_cxl = _cxl_mask(batch.addresses[read_misses], page_bytes, rack._cxl_period)
    batch.charge(
        "integrity_ns",
        _rack_latency(rack, read_cxl) * ctx.options.integrity_overlap,
        counts=read_misses,
    )
    _credit_devices(rack, read_cxl, fetch_bytes, is_write=False)

    wb_cxl = _cxl_mask(
        batch.writebacks[batch.wb_mask & ~wb_hit_flags], page_bytes, rack._cxl_period
    )
    _credit_devices(rack, wb_cxl, fetch_bytes, is_write=True)
    misses = len(read_cxl) + len(wb_cxl)
    ctx.traffic.mac_uv_bytes += misses * fetch_bytes

    # The tier replaced the cache lookups; credit the hit/miss (and the
    # one-insertion-per-miss) counters those lookups would have bumped, so
    # the mode's mac_cache_hit_rate telemetry is unchanged.  Eviction
    # counters stay at zero -- no result or telemetry field reads them.
    stats = component.cache.stats
    stats.hits += batch.num_events + batch.num_writebacks - misses
    stats.misses += misses
    stats.insertions += misses


def _tree_node_cxl(
    addresses: "np.ndarray", depths: "np.ndarray", geometry: TreeGeometry, rack: "RackMemory"
) -> "np.ndarray":
    """Device flags of every fetched tree node, event-major, leaf first.

    Rebuilds each walk's node addresses (``_node_address`` per level, the
    index divided by the arity per level up) for its first ``depth`` levels.
    Signed 64-bit arithmetic keeps the synthetic metadata addresses exact on
    every numpy version.
    """
    max_depth = int(depths.max()) if len(depths) else 0
    if max_depth == 0:
        return np.zeros(0, dtype=bool)
    page_bytes = rack.config.toleo.page_bytes
    index = addresses.astype(np.int64) // geometry.leaf_bytes
    cxl = np.empty((len(addresses), max_depth), dtype=bool)
    for level in range(max_depth):
        nodes = TREE_METADATA_BASE + level * TREE_LEVEL_STRIDE + index * CACHE_BLOCK_BYTES
        cxl[:, level] = _cxl_mask(nodes, page_bytes, rack._cxl_period)
        index //= geometry.arity
    return cxl[np.arange(max_depth) < depths[:, None]]


def _counter_tree_kernel(
    replay: "BatchReplayEngine",
    component: CounterTreeComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # The tree tier says how many levels each walk fetched; each fetched
    # node is one 64-byte rack access, and a read walk's node latencies
    # join the freshness column in level order.
    geometry = TreeGeometry.of(component)
    tier = replay.tree_tier(geometry)
    lo, hi = batch.lo, batch.hi
    read_depths = tier.view("read_depths")[lo:hi]
    wb_depths = tier.view("wb_depths")[lo:hi][batch.wb_mask]
    rack = ctx.rack

    read_cxl = _tree_node_cxl(batch.addresses, read_depths, geometry, rack)
    batch.charge("freshness_ns", _rack_latency(rack, read_cxl), counts=read_depths)
    _credit_devices(rack, read_cxl, CACHE_BLOCK_BYTES, is_write=False)
    wb_cxl = _tree_node_cxl(batch.wb_addresses, wb_depths, geometry, rack)
    _credit_devices(rack, wb_cxl, CACHE_BLOCK_BYTES, is_write=True)

    fetches = len(read_cxl) + len(wb_cxl)
    component.node_fetches += fetches
    ctx.traffic.stealth_bytes += fetches * CACHE_BLOCK_BYTES
    # Every fetched level was one cache miss (and insertion); a walk that
    # stopped short of the root ended on one hit.
    stats = component.cache.stats
    stats.hits += int(np.count_nonzero(read_depths < geometry.levels)) + int(
        np.count_nonzero(wb_depths < geometry.levels)
    )
    stats.misses += fetches
    stats.insertions += fetches


def _epc_paging_kernel(
    replay: "BatchReplayEngine",
    component: EpcPagingComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # Every fault pages 4 KB in (a rack read), every dirty eviction pages
    # 4 KB out (a rack write); only read-path faults expose latency, as one
    # fault-plus-penalty term per fault in the freshness column.
    tier = replay.epc_tier(component.epc_pages)
    lo, hi = batch.lo, batch.hi
    read_column, wb_column = tier.view("read_verdicts"), tier.view("wb_verdicts")
    read_verdicts, wb_verdicts = read_column[lo:hi], wb_column[lo:hi]
    read_faults = read_verdicts != EPC_RESIDENT
    wb_faults = wb_verdicts != EPC_RESIDENT
    rack = ctx.rack
    page_bytes = rack.config.toleo.page_bytes
    period = rack._cxl_period

    read_pages = batch.addresses[read_faults] // PAGE_BYTES * PAGE_BYTES
    read_cxl = _cxl_mask(read_pages, page_bytes, period)
    batch.charge(
        "freshness_ns",
        _rack_latency(rack, read_cxl) + component.spec.page_fault_penalty_ns,
        counts=read_faults,
    )
    wb_pages = batch.writebacks[wb_faults] // PAGE_BYTES * PAGE_BYTES
    fault_cxl = np.concatenate((read_cxl, _cxl_mask(wb_pages, page_bytes, period)))
    _credit_devices(rack, fault_cxl, PAGE_BYTES, is_write=False)

    def dirty_evictions(column: "np.ndarray") -> int:
        return int(np.count_nonzero(column == EPC_FAULT_DIRTY_EVICTION))

    first = dirty_evictions(read_column[:lo]) + dirty_evictions(wb_column[:lo])
    evicted = dirty_evictions(read_verdicts) + dirty_evictions(wb_verdicts)
    victims = tier.view("victims")[first : first + evicted] * PAGE_BYTES
    _credit_devices(rack, _cxl_mask(victims, page_bytes, period), PAGE_BYTES, is_write=True)

    faults = len(fault_cxl)
    component.page_faults += faults
    component.dirty_evictions += evicted
    ctx.traffic.data_bytes += (faults + evicted) * PAGE_BYTES


# ---------------------------------------------------------------------------
# Component capability registry
# ---------------------------------------------------------------------------

#: Component types handled natively by a batch kernel.
_BATCH_KERNELS: Dict[type, BatchKernel] = {
    EncryptionComponent: _encryption_kernel,
    MacIntegrityComponent: _mac_integrity_kernel,
    CounterTreeComponent: _counter_tree_kernel,
    EpcPagingComponent: _epc_paging_kernel,
    InvisiMemComponent: _invisimem_kernel,
}

#: Component types with no batch kernel that may run in the residual scalar
#: loop alongside the kernels.
_SCALAR_SAFE_TYPES: Set[type] = {StealthFreshnessComponent}

#: ``LatencyBreakdown`` fields each known component type writes -- from its
#: scalar hooks, or equivalently by charges from its batch kernel.  Integer
#: counters are not listed: they commute, so any writer order is exact.
_FLOAT_WRITES: Dict[type, FrozenSet[str]] = {
    EncryptionComponent: frozenset({"decryption_ns"}),
    MacIntegrityComponent: frozenset({"integrity_ns"}),
    StealthFreshnessComponent: frozenset({"freshness_ns"}),
    CounterTreeComponent: frozenset({"freshness_ns"}),
    EpcPagingComponent: frozenset({"freshness_ns"}),
    InvisiMemComponent: frozenset({"side_channel_ns"}),
}

_LATENCY_FIELDS = frozenset(field.name for field in dataclasses.fields(LatencyBreakdown))


def _check_registration(component_type: type, floats: Iterable[str]) -> FrozenSet[str]:
    if not (isinstance(component_type, type) and issubclass(component_type, PathComponent)):
        raise TypeError(f"{component_type!r} is not a PathComponent subclass")
    fields = frozenset(floats)
    unknown = fields - _LATENCY_FIELDS
    if unknown:
        raise ValueError(f"not LatencyBreakdown fields: {sorted(unknown)}")
    if "dram_ns" in fields:
        # The engine's own data fetch charges dram_ns; a component cannot.
        raise ValueError("dram_ns belongs to the engine's data fetch")
    return fields


def declare_scalar_safe(component_type: type, floats: Iterable[str] = ()) -> None:
    """Register a third-party component to run in the residual scalar loop.

    ``floats`` names every ``LatencyBreakdown`` field the component's hooks
    add to (integer counters need no declaration).  The residual loop then
    owns those fields: a batched component that would charge one of them is
    demoted to the loop, so each field keeps a single fold.  See
    ``docs/extending.md``.
    """
    _FLOAT_WRITES[component_type] = _check_registration(component_type, floats)
    _SCALAR_SAFE_TYPES.add(component_type)


def register_batch_kernel(
    component_type: type, kernel: BatchKernel, floats: Iterable[str] = ()
) -> None:
    """Register a custom batch kernel for a third-party component type.

    ``floats`` names the ``LatencyBreakdown`` fields the kernel charges
    through :meth:`EventBatch.charge` (and the component's scalar hooks add
    to -- the kernel must match them term for term).
    """
    _FLOAT_WRITES[component_type] = _check_registration(component_type, floats)
    _BATCH_KERNELS[component_type] = kernel


def vectorizable(components: Sequence[PathComponent]) -> bool:
    """Whether a component stack can take the vectorized replay path.

    Mirrors :meth:`SimulationEngine.distillable`'s role for the batch tier:
    True only when numpy is importable and every component is either handled
    by a batch kernel or declared scalar-safe.  Unknown component types make
    the whole stack fall back to the scalar ``replay_events`` -- exact,
    just slower.
    """
    if not HAVE_NUMPY:
        return False
    return all(
        type(c) in _BATCH_KERNELS or type(c) in _SCALAR_SAFE_TYPES for c in components
    )


def replay_plan(
    components: Sequence[PathComponent],
) -> Tuple[List[PathComponent], List[PathComponent]]:
    """Split a vectorizable stack into ``(batched, residual)`` components.

    Components without a kernel are residual.  The residual loop owns every
    float field a residual component writes; a kernel-backed component that
    writes one of those fields is demoted to the loop as well (repeatedly,
    since a demoted component brings its own fields).  Both lists keep the
    stack order.
    """
    residual = {id(c) for c in components if type(c) not in _BATCH_KERNELS}
    while True:
        owned: Set[str] = set()
        for c in components:
            if id(c) in residual:
                owned |= _FLOAT_WRITES.get(type(c), frozenset())
        demoted = {
            id(c)
            for c in components
            if id(c) not in residual and _FLOAT_WRITES.get(type(c), frozenset()) & owned
        }
        if not demoted:
            break
        residual |= demoted
    return (
        [c for c in components if id(c) not in residual],
        [c for c in components if id(c) in residual],
    )


# ---------------------------------------------------------------------------
# The batch replay engine
# ---------------------------------------------------------------------------


class BatchReplayEngine:
    """Replays miss-event windows with numpy kernels, bit-identically.

    One instance wraps one ``(engine, events)`` pair; :meth:`replay` has the
    same window contract as :meth:`SimulationEngine.replay_events` and can
    drive a sharded chain window by window.  Verdict tiers are fetched
    lazily, only for the components the stack batches, and memoised on the
    instance: from the result store (``store`` or the default store), or --
    with ``local`` -- computed in-process and never persisted, for callers
    that distil their own events (a caller-supplied workload need not be the
    registry trace the stream's name and seed would key).  ``tier`` injects
    a precomputed MAC tier shared across modes.
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        events: MissEventStream,
        store: Optional[ResultStore] = None,
        tier: Optional[MacTier] = None,
        local: bool = False,
    ) -> None:
        self.engine = engine
        self.events = events
        self.store = store
        self.local = local
        self._tier = tier
        self._tiers: Dict[Any, VerdictTier] = {}

    def mac_tier(self) -> MacTier:
        """The MAC tier for this engine's event stream.

        One tier entry is shared by every MAC-bearing mode of the same
        events/config family.
        """
        if self._tier is None:
            config = self.engine.config
            if self.local:
                self._tier = compute_mac_tier(self.events, config)
            else:
                self._tier = distilled_mac_tier(self.events, config, self.store)
        return self._tier

    def tree_tier(self, geometry: TreeGeometry) -> TreeTier:
        """The counter-tree tier for one tree geometry."""
        return self._geometry_tier(
            TreeTier, geometry, compute_tree_tier, distilled_tree_tier
        )

    def epc_tier(self, epc_pages: int) -> EpcTier:
        """The EPC tier for one EPC size."""
        return self._geometry_tier(EpcTier, epc_pages, compute_epc_tier, distilled_epc_tier)

    def _geometry_tier(self, tier_type: type, geometry: Any, compute, distilled) -> Any:
        memo = (tier_type.kind, geometry)
        tier = self._tiers.get(memo)
        if tier is None:
            if self.local:
                tier = compute(self.events, geometry)
            else:
                tier = distilled(self.events, geometry, self.engine.config, self.store)
            self._tiers[memo] = tier
        return tier

    def replay(
        self,
        state: "EngineState",
        stop: Optional[int] = None,
    ) -> "EngineState":
        """Advance ``state`` over ``[state.position, stop)`` in batch form.

        Same validation, same window semantics, same counters -- bit for
        bit -- as :meth:`SimulationEngine.replay_events`; see the module
        docstring for why the float folds stay identical.
        """
        events = self.events
        stop = state.num_accesses if stop is None else stop
        if not state.position <= stop <= state.num_accesses:
            raise ValueError(
                f"cannot replay window [{state.position}, {stop}) of a "
                f"{state.num_accesses}-access run"
            )
        if events.start_index != 0 or events.num_accesses != state.num_accesses:
            raise ValueError(
                f"event stream covers [{events.start_index}, {events.stop_index}) "
                f"but the run needs [0, {state.num_accesses})"
            )
        if not vectorizable(state.components):
            raise ValueError(
                "component stack is not vectorizable; use replay_events() instead"
            )
        if state.position == stop:
            return state

        ctx = state.ctx
        rack = ctx.rack
        traffic = ctx.traffic
        batched, residual = replay_plan(state.components)

        lo = bisect_left(events.indices, state.position)
        hi = bisect_left(events.indices, stop)
        batch = EventBatch(events, lo, hi)
        n = batch.num_events
        n_wb = batch.num_writebacks

        if n:
            # ---- engine data fetch: common to every mode ------------------
            page_bytes = rack.config.toleo.page_bytes
            read_cxl = _cxl_mask(batch.addresses, page_bytes, rack._cxl_period)
            batch.charge("dram_ns", _rack_latency(rack, read_cxl))
            _credit_devices(rack, read_cxl, CACHE_BLOCK_BYTES, is_write=False)
            wb_cxl = _cxl_mask(batch.wb_addresses, page_bytes, rack._cxl_period)
            _credit_devices(rack, wb_cxl, CACHE_BLOCK_BYTES, is_write=True)
            traffic.data_bytes += (n + n_wb) * CACHE_BLOCK_BYTES
            state.llc_read_misses += n
            state.writebacks += n_wb

            # ---- protection path: batch kernels, then one fold per field --
            for component in batched:
                _BATCH_KERNELS[type(component)](self, component, ctx, batch)
            batch.fold(ctx.latency)

        self._replay_residual(state, residual, batch, stop)

        state.position = stop
        if stop == state.num_accesses:
            hierarchy = state.hierarchy
            if hierarchy.l3.stats.accesses or hierarchy.l1.stats.accesses:
                raise ValueError(
                    "cannot fold pre-pass statistics into a hierarchy that "
                    "already replayed accesses; do not mix replay() and "
                    "replay_events() within one run"
                )
            for level, cache in (("l1", hierarchy.l1), ("l2", hierarchy.l2), ("l3", hierarchy.l3)):
                cache.stats = cache.stats.merge(events.level_stats[level])
            hierarchy.memory_accesses += events.memory_accesses
            hierarchy.writebacks += events.hierarchy_writebacks
        return state

    def _replay_residual(
        self,
        state: "EngineState",
        residual: Sequence[PathComponent],
        batch: EventBatch,
        stop: int,
    ) -> None:
        """Run the stateful components through the scalar per-event loop.

        Mirrors ``replay_events``' loop exactly -- same hook dispatch, same
        sampler merge, same ``ctx`` field updates -- restricted to the
        residual components.  Skipped entirely (cheaply) for fully batched
        stacks with no samplers.
        """
        ctx = state.ctx
        components = state.components
        on_read_miss = [
            c.on_read_miss
            for c in residual
            if type(c).on_read_miss is not PathComponent.on_read_miss
        ]
        on_writeback = [
            c.on_writeback
            for c in residual
            if type(c).on_writeback is not PathComponent.on_writeback
        ]

        def index_stream(first: int, period: int, order: int, hook):
            return ((index, order, hook) for index in range(first, stop, period))

        sampling = False
        streams = []
        for order, component in enumerate(components):
            if type(component).on_access is PathComponent.on_access:
                continue
            period = getattr(component, "access_period", None)
            if not period:
                raise ValueError(
                    f"{type(component).__name__} overrides on_access without "
                    "declaring access_period; use the full replay instead"
                )
            sampling = True
            first = -(-state.position // period) * period
            streams.append(index_stream(first, period, order, component.on_access))
        pending = heapq.merge(*streams)
        next_sample = next(pending, None)

        if on_read_miss or on_writeback or next_sample is not None:
            events = self.events
            lo, hi = batch.lo, batch.hi
            # Iterate the builtin arrays, not the numpy views: the residual
            # components do Python arithmetic on the addresses, and numpy
            # scalar division would silently promote to float64.
            window = zip(
                events.indices[lo:hi],
                events.addresses[lo:hi],
                events.writes[lo:hi],
                events.writeback_addresses[lo:hi],
            )
            for index, address, is_write, wb in window:
                while next_sample is not None and next_sample[0] <= index:
                    ctx.index = next_sample[0]
                    next_sample[2](ctx)
                    next_sample = next(pending, None)
                if sampling:
                    ctx.index = index
                ctx.address = address
                ctx.is_write = bool(is_write)
                for hook in on_read_miss:
                    hook(ctx)
                if wb != WB_NONE:
                    ctx.address = wb
                    ctx.is_write = True
                    for hook in on_writeback:
                        hook(ctx)

        while next_sample is not None:
            ctx.index = next_sample[0]
            next_sample[2](ctx)
            next_sample = next(pending, None)


def mode_vector_profile(params) -> str:
    """How the vectorized core executes a registered mode's stack.

    ``"batch"``: every component has a batch kernel (no residual loop at
    all).  ``"hybrid"``: batch kernels plus a scalar residual loop for the
    stateful components.  ``"scalar"``: numpy unavailable, full fallback.
    Registered modes always build known component types, so stacks built
    from :class:`~repro.sim.configs.ModeParameters` never fall back for an
    unknown type -- only third-party stacks can.
    """
    if not HAVE_NUMPY:
        return "scalar"
    return "batch" if params.batch_replay_safe else "hybrid"


__all__ = [
    "EPC_FAULT",
    "EPC_FAULT_DIRTY_EVICTION",
    "EPC_RESIDENT",
    "HAVE_NUMPY",
    "BatchReplayEngine",
    "EpcTier",
    "EventBatch",
    "MacTier",
    "TreeGeometry",
    "TreeTier",
    "VerdictTier",
    "compute_epc_tier",
    "compute_mac_tier",
    "compute_tree_tier",
    "declare_scalar_safe",
    "distilled_epc_tier",
    "distilled_mac_tier",
    "distilled_tree_tier",
    "epc_tier_key",
    "mac_geometry_fields",
    "mac_tier_key",
    "mode_vector_profile",
    "precompute_seconds",
    "register_batch_kernel",
    "replay_plan",
    "reset_precompute_seconds",
    "tree_tier_key",
    "vectorizable",
]
