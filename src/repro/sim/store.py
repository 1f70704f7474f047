"""Persistent, content-addressed store for simulation results.

The experiment harness used to memoise suite results in a per-process dict,
which meant every new process (CI job, figure script, notebook) replayed the
full benchmark suite from scratch -- and the cache key silently omitted the
``SystemConfig``/``EngineOptions``, so two runs with different configurations
could be served each other's results.  This module fixes both:

* :func:`content_key` hashes the *complete* run description -- benchmark
  names, modes, scale, trace length, seed, and the full ``SystemConfig`` and
  ``EngineOptions`` dataclasses (recursively) -- into a stable hex digest.
  Any change to any field produces a different key.
* :class:`ResultStore` is a two-layer cache: an in-process memory layer that
  preserves object identity (repeated calls in one process return the same
  object), and an on-disk layer under ``.repro_cache/`` (override with
  ``REPRO_CACHE_DIR``) that survives across processes, so a second invocation
  of ``repro bench`` is served in milliseconds.

The disk layer is a **sqlite index** (``index.sqlite``, WAL mode) rather than
one JSON file per entry.  The motivation is the distributed-execution
roadmap: many writer processes must be able to hit the same store without
racing (WAL + one writer transaction per :meth:`ResultStore.put`), and
"what do I have cached?" must be answerable without ``stat``-ing thousands
of files (:meth:`ResultStore.query`, :meth:`ResultStore.stats`).  Small
payloads live inline in the index; large ones (event streams, MAC tiers)
spill to content-named blob files under ``blobs/`` whose name is the sha256
of the payload text -- identical payloads share one blob, and a blob whose
content no longer matches its name reads as a miss, never as wrong data.

A cache directory written by the JSON-era backend (one ``<key>.json``
envelope per entry) migrates transparently: the first disk access of a
:class:`ResultStore` over such a directory folds every legacy entry into the
index and removes the legacy files.  Keys are unchanged, payloads are
byte-identical, so a warm pre-migration cache keeps serving without a single
re-simulation.

Corrupt, version-mismatched or damaged entries (garbled payload text,
truncated or missing blobs) are treated as misses, never errors; bumping
``FORMAT_VERSION`` invalidates every existing on-disk entry at once, and
:meth:`ResultStore.gc` drops entries whose recorded code fingerprint no
longer matches the source tree.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

#: Bump whenever the serialised payload layout changes.
FORMAT_VERSION = 1

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable carrying a precomputed :func:`code_fingerprint` into
#: worker processes (see :func:`export_code_fingerprint`).
CODE_FINGERPRINT_ENV = "REPRO_CODE_FINGERPRINT"

#: The sqlite index file inside the store root.
INDEX_FILENAME = "index.sqlite"

#: Directory (inside the store root) holding spilled payload blobs.
BLOB_DIR_NAME = "blobs"

#: Payloads whose JSON text exceeds this many bytes spill to a blob file
#: instead of living inline in the index -- the index stays small and fast to
#: scan while event streams and MAC tiers (hundreds of KiB) stay on the
#: filesystem where they belong.
INLINE_LIMIT = 32 * 1024

#: How long a writer waits for a competing writer's transaction (ms).
_BUSY_TIMEOUT_MS = 30_000

#: Environment override for the busy timeout -- tests use a tiny value to
#: exercise the contention paths without waiting 30 s per probe.
BUSY_TIMEOUT_ENV = "REPRO_BUSY_TIMEOUT_MS"

#: File (inside the store root) naming the most recent writer process, so a
#: :class:`StoreBusyError` can point at who is holding the lock.  Purely
#: diagnostic: last-writer-wins, never cleaned up, never trusted for
#: correctness.
WRITER_PID_FILENAME = "writer.pid"


def _busy_timeout_ms() -> int:
    raw = os.environ.get(BUSY_TIMEOUT_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return _BUSY_TIMEOUT_MS


def _is_busy_error(exc: BaseException) -> bool:
    """Whether a sqlite error means "writer lock still held at timeout"."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class StoreBusyError(RuntimeError):
    """A store write gave up waiting for a competing writer's lock.

    Raised (instead of silently degrading to memory-only caching) because a
    persistently-blocked writer means the cache is not doing its job: the
    caller should know, and the message names the lock holder's pid file so
    the stuck process can be found and dealt with.
    """

    def __init__(self, db_path: Path, pid_file: Path, timeout_ms: int) -> None:
        holder = "unknown"
        try:
            holder = pid_file.read_text().strip() or "unknown"
        except OSError:
            pass
        super().__init__(
            f"store write to {db_path} timed out after {timeout_ms} ms waiting "
            f"for the writer lock (last writer recorded in {pid_file}: "
            f"pid {holder})"
        )
        self.db_path = db_path
        self.pid_file = pid_file
        self.holder_pid = holder

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS entries (
        key     TEXT PRIMARY KEY,
        kind    TEXT NOT NULL,
        format  INTEGER NOT NULL,
        code    TEXT NOT NULL,
        size    INTEGER NOT NULL,
        payload TEXT,
        blob    TEXT
    )
    """,
    "CREATE INDEX IF NOT EXISTS entries_by_kind ON entries(kind)",
)

#: Internal miss sentinel, distinct from a legitimately-stored ``null``.
_MISS = object()

#: Connections inherited across fork are never reused *or* closed (closing
#: could interact with the parent's locks); parking them here keeps the
#: child's garbage collector from closing them behind our back.
_ABANDONED_CONNECTIONS: List[sqlite3.Connection] = []


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, folded into all cache keys.

    The run parameters describe *what* was simulated, not *how*: after any
    edit to the performance model a warm ``.repro_cache/`` would otherwise
    silently keep serving the old model's numbers -- the worst failure mode
    for a reproducibility repo.  Hashing the package source makes every code
    change invalidate the persistent store automatically (conservative, but
    re-simulation is cheap next to a wrong figure).

    The hash is computed at most once per *pool*, not once per process: when
    ``REPRO_CODE_FINGERPRINT`` is set (the parent exports it via
    :func:`export_code_fingerprint` before starting worker pools), the value
    is taken from the environment and the package source is never re-read --
    spawn-start workers would otherwise each re-hash the whole tree on their
    first store access.
    """
    inherited = os.environ.get(CODE_FINGERPRINT_ENV)
    if inherited:
        return inherited
    import repro

    digest = hashlib.sha256()
    try:
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    except OSError:
        return getattr(repro, "__version__", "unknown")
    return digest.hexdigest()


def export_code_fingerprint() -> str:
    """Publish the parent's fingerprint to the environment for workers.

    The executor calls this immediately before creating worker processes:
    spawn-start workers inherit the environment, so their first
    :func:`code_fingerprint` call returns the parent's value instead of
    re-hashing the entire package source per worker (fork workers inherit
    the parent's ``lru_cache`` and were already fine).
    """
    fingerprint = code_fingerprint()
    os.environ[CODE_FINGERPRINT_ENV] = fingerprint
    return fingerprint


def _canonical(value: Any) -> Any:
    """Convert a run parameter into a canonical JSON-serialisable form.

    Dataclasses are tagged with their class name so two different
    configuration types with coincidentally equal fields hash differently;
    enums collapse to their value; tuples/sets become lists.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__class__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_canonical(v) for v in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot build a stable cache key from {type(value).__name__}")


def content_key(kind: str, **params: Any) -> str:
    """A stable content hash of a run description.

    ``kind`` namespaces the entry (``"suite"``, ``"space"``, ...); ``params``
    is everything that influences the result.  The digest is prefixed with the
    kind so cache entries remain human-identifiable in the index.
    """
    payload = {
        "kind": kind,
        "format": FORMAT_VERSION,
        "code": code_fingerprint(),
        "params": _canonical(params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{kind}-{hashlib.sha256(blob.encode('utf-8')).hexdigest()}"


def _kind_of(key: str) -> str:
    """The kind prefix of a content key (``"suite-ab12..."`` -> ``"suite"``).

    Only the trailing digest is stripped, so dashed kinds
    (``"events-slice-ab12..."`` -> ``"events-slice"``) keep their own
    namespace instead of folding into the first dash-separated word.
    """
    return key.rsplit("-", 1)[0]


def _blob_name(digest: str) -> str:
    return f"{digest}.json"


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One row of the queryable index (see :meth:`ResultStore.query`)."""

    key: str
    kind: str
    size: int
    inline: bool
    stale: bool


@dataclasses.dataclass(frozen=True)
class GcResult:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    dropped_entries: int
    dropped_blobs: int
    kept_entries: int


class ResultStore:
    """Two-layer (memory + sqlite-indexed disk) result cache.

    The memory layer holds the live Python objects and preserves identity;
    the disk layer holds their serialised form in a WAL-mode sqlite index
    (inline for small payloads, content-named blob files for large ones).
    Values without an encoder stay memory-only.  Corrupt or
    version-mismatched disk entries are treated as misses, never errors.

    **Decoder-less contract.**  ``get(key)`` *without* a decoder serves the
    memory layer's live object when present, and otherwise the raw
    JSON-decoded payload exactly as the encoder wrote it -- it cannot
    reconstruct the domain object, so the raw form is returned as-is and is
    *not* promoted into the memory layer (a later decoded ``get`` must still
    see the payload, not a half-typed cache line).  ``key in store`` and
    ``len(store)`` cover exactly the keys ``get`` can serve: the union of the
    memory layer and the readable disk index.

    **Concurrency.**  Any number of processes may ``put``/``get``/
    ``invalidate`` against the same directory: every write is one sqlite
    transaction (concurrent writers serialise on the WAL writer lock with a
    generous busy timeout), blob files are written atomically under
    content-derived names, and readers never observe a half-written entry --
    at worst a racing delete turns a read into an honest miss.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self._memory: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._pid_advertised: Optional[int] = None

    # -- paths ---------------------------------------------------------------

    @property
    def db_path(self) -> Path:
        """Location of the sqlite index file."""
        return self.root / INDEX_FILENAME

    @property
    def blob_dir(self) -> Path:
        """Directory holding spilled (content-named) payload blobs."""
        return self.root / BLOB_DIR_NAME

    @property
    def writer_pid_path(self) -> Path:
        """Diagnostic file naming the most recent writer process."""
        return self.root / WRITER_PID_FILENAME

    def path_for(self, key: str) -> Path:
        """Where the JSON-era backend kept this entry.

        Only meaningful for not-yet-migrated legacy caches: current entries
        live in the sqlite index, and the first disk access migrates (and
        removes) any file at this path.
        """
        return self.root / f"{key}.json"

    # -- connection management -----------------------------------------------

    def _has_legacy_files(self) -> bool:
        try:
            return next(self.root.glob("*.json"), None) is not None
        except OSError:
            return False

    def _connection(self, create: bool) -> Optional[sqlite3.Connection]:
        """The per-process sqlite connection (caller holds ``self._lock``).

        ``create=False`` avoids materialising an index for a read against a
        directory that has neither an index nor legacy entries.  A connection
        inherited across ``fork`` belongs to the parent and is abandoned, not
        reused: sqlite connections must never cross a process boundary.
        """
        if self._conn is not None:
            if self._conn_pid == os.getpid():
                return self._conn
            _ABANDONED_CONNECTIONS.append(self._conn)
            self._conn = None
            self._conn_pid = None
        if not create and not self.db_path.exists() and not self._has_legacy_files():
            return None
        timeout_ms = _busy_timeout_ms()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.db_path,
                timeout=timeout_ms / 1000,
                check_same_thread=False,
            )
            conn.execute(f"PRAGMA busy_timeout={timeout_ms}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:
                for statement in _SCHEMA:
                    conn.execute(statement)
        except (sqlite3.Error, OSError):
            return None
        self._conn = conn
        self._conn_pid = os.getpid()
        self._migrate_legacy(conn)
        return conn

    def _migrate_legacy(self, conn: sqlite3.Connection) -> None:
        """Fold a JSON-era cache directory into the index, once.

        Every well-formed ``<key>.json`` envelope becomes an index entry
        with a byte-identical payload (``INSERT OR IGNORE``: an entry the
        index already has wins over the stale file); corrupt envelopes were
        misses before and simply disappear.  Legacy files are removed either
        way, so the scan is a no-op on every subsequent open.  Concurrent
        migrations of the same directory are safe -- both insert the same
        rows, and unlinking an already-unlinked file is ignored.
        """
        try:
            legacy = sorted(self.root.glob("*.json"))
        except OSError:
            return
        for path in legacy:
            key = path.stem
            try:
                envelope = json.loads(path.read_text())
            except (OSError, ValueError):
                envelope = None
            if (
                isinstance(envelope, dict)
                and envelope.get("format") == FORMAT_VERSION
                and envelope.get("key") == key
                and "payload" in envelope
            ):
                payload_text = json.dumps(
                    envelope["payload"], separators=(",", ":")
                )
                try:
                    self._write_row(conn, key, payload_text, replace=False)
                except (sqlite3.Error, OSError):
                    continue  # leave the legacy file for a later attempt
            try:
                path.unlink()
            except OSError:
                pass

    # -- blob spill ----------------------------------------------------------

    def _write_blob(self, payload_text: str) -> str:
        """Atomically persist a spilled payload; returns the blob file name.

        Blobs are named by the sha256 of their content, so identical payloads
        under different keys share one file and a partially-written or
        damaged blob can never be mistaken for valid data (the digest check
        on read fails).  An existing blob of the same name *is* the payload
        already -- no rewrite needed.
        """
        data = payload_text.encode("utf-8")
        name = _blob_name(hashlib.sha256(data).hexdigest())
        target = self.blob_dir / name
        if target.exists():
            return name
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.blob_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, target)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
        return name

    def _release_blob(self, conn: sqlite3.Connection, name: str) -> None:
        """Drop a blob file once no index row references it.

        A racing writer re-adding an entry for the same payload between the
        reference count and the unlink degrades that entry to a miss on its
        next read (missing blob), which recomputes and rewrites the blob --
        never a corrupt read.
        """
        (refs,) = conn.execute(
            "SELECT COUNT(*) FROM entries WHERE blob = ?", (name,)
        ).fetchone()
        if refs == 0:
            try:
                (self.blob_dir / name).unlink(missing_ok=True)
            except OSError:
                pass

    def _advertise_writer(self) -> None:
        """Record this process in the writer pid file, once per process.

        Purely diagnostic (see :class:`StoreBusyError`): the file names the
        most recent process to write this store, so a blocked writer's error
        message can point at a likely lock holder.  Never read back for
        correctness, and failures to write it are ignored.
        """
        pid = os.getpid()
        if self._pid_advertised == pid:
            return
        try:
            self.writer_pid_path.write_text(f"{pid}\n")
        except OSError:
            pass
        self._pid_advertised = pid

    def _write_row(
        self,
        conn: sqlite3.Connection,
        key: str,
        payload_text: str,
        replace: bool = True,
    ) -> None:
        """One writer transaction: insert/replace a single entry."""
        self._advertise_writer()
        blob: Optional[str] = None
        inline: Optional[str] = payload_text
        if len(payload_text) > INLINE_LIMIT:
            blob = self._write_blob(payload_text)
            inline = None
        old = conn.execute(
            "SELECT blob FROM entries WHERE key = ?", (key,)
        ).fetchone()
        verb = "INSERT OR REPLACE" if replace else "INSERT OR IGNORE"
        with conn:
            conn.execute(
                f"{verb} INTO entries (key, kind, format, code, size, payload, blob)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    _kind_of(key),
                    FORMAT_VERSION,
                    code_fingerprint(),
                    len(payload_text),
                    inline,
                    blob,
                ),
            )
        if replace and old is not None and old[0] is not None and old[0] != blob:
            self._release_blob(conn, old[0])

    # -- lookup --------------------------------------------------------------

    def _read_payload(self, key: str) -> Any:
        """The raw JSON payload of a disk entry, or ``_MISS``."""
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return _MISS
            try:
                row = conn.execute(
                    "SELECT format, payload, blob FROM entries WHERE key = ?",
                    (key,),
                ).fetchone()
            except sqlite3.Error as exc:
                if _is_busy_error(exc):
                    # A read that loses the lock race is an honest miss (the
                    # caller recomputes), but a *silent* one hides that the
                    # store is thrashing -- say so once per occurrence.
                    warnings.warn(
                        f"store read of {key!r} timed out waiting for the "
                        f"writer lock on {self.db_path}; treating as a cache "
                        "miss",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                return _MISS
        if row is None:
            return _MISS
        fmt, payload_text, blob = row
        if fmt != FORMAT_VERSION:
            return _MISS
        if blob is not None:
            try:
                data = (self.blob_dir / blob).read_bytes()
            except OSError:
                return _MISS
            # The blob's name *is* its content hash: a truncated, corrupted
            # or swapped file fails the digest check and degrades to a miss.
            if _blob_name(hashlib.sha256(data).hexdigest()) != blob:
                return _MISS
            try:
                payload_text = data.decode("utf-8")
            except ValueError:
                return _MISS
        if not isinstance(payload_text, str):
            return _MISS
        try:
            return json.loads(payload_text)
        except ValueError:
            return _MISS

    def get(
        self,
        key: str,
        decoder: Optional[Callable[[Any], Any]] = None,
        promote: bool = True,
    ) -> Optional[Any]:
        """Fetch a cached value, promoting decoded disk hits into memory.

        With a ``decoder``, a disk hit is decoded, promoted into the memory
        layer and returned; a decoder that rejects the payload degrades to a
        miss.  Without one (the decoder-less contract, see the class
        docstring) a disk hit returns the raw JSON payload, un-promoted.
        ``promote=False`` skips the memory-layer insert (still serving
        memory hits): bulk streaming readers -- one event slice per window of
        a tera-scale run -- would otherwise grow the memory layer by the
        whole run.
        """
        if key in self._memory:
            return self._memory[key]
        payload = self._read_payload(key)
        if payload is _MISS:
            return None
        if decoder is None:
            return payload
        try:
            value = decoder(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            # A stale or hand-edited payload the decoder rejects must degrade
            # to a miss and a recompute, never an exception.
            return None
        if promote:
            self._memory[key] = value
        return value

    def put(
        self,
        key: str,
        value: Any,
        encoder: Optional[Callable[[Any], Any]] = None,
        keep_in_memory: bool = True,
    ) -> None:
        """Insert a value; with an encoder it is also written to disk.

        The disk write is one sqlite transaction (plus an atomic blob write
        for spilled payloads), so concurrent writers -- even hammering the
        same key -- serialise cleanly and a killed worker never leaves a
        half-written entry.  Any I/O failure degrades to memory-only caching
        rather than failing the run.  ``keep_in_memory=False`` writes the
        disk layer only (requires an encoder -- a memory-less, encoder-less
        put would silently store nothing): streaming producers persist one
        window at a time without accumulating the run in the memory layer.
        """
        if not keep_in_memory and encoder is None:
            raise ValueError("keep_in_memory=False requires an encoder")
        if keep_in_memory:
            self._memory[key] = value
        if encoder is None:
            return
        payload_text = json.dumps(encoder(value), separators=(",", ":"))
        with self._lock:
            conn = self._connection(create=True)
            if conn is None:
                return
            try:
                self._write_row(conn, key, payload_text)
            except (sqlite3.Error, OSError) as exc:
                if _is_busy_error(exc):
                    # An exhausted busy timeout is not an I/O hiccup: some
                    # other process is sitting on the writer lock, every
                    # subsequent write will stall the same way, and silently
                    # dropping to memory-only caching would hide it.  Name
                    # the likely holder instead.
                    raise StoreBusyError(
                        self.db_path, self.writer_pid_path, _busy_timeout_ms()
                    ) from exc

    # -- maintenance ---------------------------------------------------------

    def close(self) -> None:
        """Close this process's sqlite connection (reopened on next access).

        Interrupt handlers call this so an aborted run does not leave an open
        handle pinning the WAL; a connection inherited across ``fork``
        belongs to the parent and is abandoned, not closed (see
        :meth:`_connection`).  The memory layer is untouched.
        """
        with self._lock:
            conn, pid = self._conn, self._conn_pid
            self._conn = None
            self._conn_pid = None
            if conn is None:
                return
            if pid != os.getpid():
                _ABANDONED_CONNECTIONS.append(conn)
                return
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def invalidate(self, key: str) -> None:
        """Drop one entry from both layers."""
        self._memory.pop(key, None)
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return
            try:
                row = conn.execute(
                    "SELECT blob FROM entries WHERE key = ?", (key,)
                ).fetchone()
                with conn:
                    conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                if row is not None and row[0] is not None:
                    self._release_blob(conn, row[0])
            except (sqlite3.Error, OSError):
                pass

    def clear_memory(self) -> None:
        """Drop the in-process layer only (disk entries survive)."""
        self._memory.clear()

    def clear(self) -> None:
        """Drop both layers."""
        self.clear_memory()
        with self._lock:
            conn = self._connection(create=False)
            if conn is not None:
                try:
                    with conn:
                        conn.execute("DELETE FROM entries")
                except (sqlite3.Error, OSError):
                    pass
        if self.blob_dir.is_dir():
            for path in self.blob_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def gc(self) -> GcResult:
        """Compact the store: drop stale entries, orphaned blobs, vacuum.

        An entry is stale when its recorded code fingerprint no longer
        matches the current source tree (its key can never be looked up
        again -- :func:`content_key` folds the fingerprint in) or its format
        version predates the current layout.  Orphaned blob files (no index
        row references them) are removed, and the index file is vacuumed so
        million-entry sweeps do not leave a bloated index behind.
        """
        current = code_fingerprint()
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return GcResult(dropped_entries=0, dropped_blobs=0, kept_entries=0)
            try:
                with conn:
                    dropped = conn.execute(
                        "DELETE FROM entries WHERE code != ? OR format != ?",
                        (current, FORMAT_VERSION),
                    ).rowcount
                live = {
                    name
                    for (name,) in conn.execute(
                        "SELECT DISTINCT blob FROM entries WHERE blob IS NOT NULL"
                    )
                }
                dropped_blobs = 0
                if self.blob_dir.is_dir():
                    for path in self.blob_dir.glob("*.json"):
                        if path.name not in live:
                            try:
                                path.unlink()
                                dropped_blobs += 1
                            except OSError:
                                pass
                (kept,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
                conn.execute("VACUUM")
            except (sqlite3.Error, OSError):
                return GcResult(dropped_entries=0, dropped_blobs=0, kept_entries=0)
        return GcResult(
            dropped_entries=dropped, dropped_blobs=dropped_blobs, kept_entries=kept
        )

    # -- the queryable index -------------------------------------------------

    def _rows(self, kind: Optional[str], prefix: Optional[str]) -> List[tuple]:
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return []
            sql = "SELECT key, kind, format, code, size, payload IS NULL FROM entries"
            clauses, args = [], []
            if kind is not None:
                clauses.append("kind = ?")
                args.append(kind)
            if prefix is not None:
                # Keys are kind prefixes + hex digests: no LIKE wildcards.
                clauses.append("key LIKE ?")
                args.append(prefix + "%")
            if clauses:
                sql += " WHERE " + " AND ".join(clauses)
            sql += " ORDER BY key"
            try:
                return conn.execute(sql, args).fetchall()
            except sqlite3.Error:
                return []

    def query(
        self, kind: Optional[str] = None, prefix: Optional[str] = None
    ) -> List[StoreEntry]:
        """Enumerate disk entries without touching any payload.

        ``kind`` filters on the key's namespace (``"suite"``, ``"events"``,
        ...); ``prefix`` on the key text itself.  Entries whose recorded
        fingerprint or format no longer matches the current source tree are
        flagged ``stale`` (see :meth:`gc`).
        """
        current = code_fingerprint()
        return [
            StoreEntry(
                key=key,
                kind=entry_kind,
                size=size,
                inline=not spilled,
                stale=(code != current or fmt != FORMAT_VERSION),
            )
            for key, entry_kind, fmt, code, size, spilled in self._rows(kind, prefix)
        ]

    def stats(self) -> Dict[str, Any]:
        """Aggregate index statistics (``repro store stats``)."""
        rows = self._rows(None, None)
        current = code_fingerprint()
        kinds: Dict[str, Dict[str, int]] = {}
        stale = spilled_total = 0
        for key, entry_kind, fmt, code, size, spilled in rows:
            info = kinds.setdefault(entry_kind, {"entries": 0, "bytes": 0})
            info["entries"] += 1
            info["bytes"] += size
            if code != current or fmt != FORMAT_VERSION:
                stale += 1
            if spilled:
                spilled_total += 1
        try:
            index_bytes = self.db_path.stat().st_size
        except OSError:
            index_bytes = 0
        return {
            "root": str(self.root),
            "entries": len(rows),
            "bytes": sum(row[4] for row in rows),
            "inline_entries": len(rows) - spilled_total,
            "blob_entries": spilled_total,
            "stale_entries": stale,
            "index_bytes": index_bytes,
            "kinds": kinds,
        }

    def disk_keys(self) -> Iterator[str]:
        """Keys currently present on disk."""
        for key, *_ in self._rows(None, None):
            yield key

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return False
            try:
                row = conn.execute(
                    "SELECT format, blob FROM entries WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                return False
        if row is None or row[0] != FORMAT_VERSION:
            return False
        return row[1] is None or (self.blob_dir / row[1]).exists()

    def __len__(self) -> int:
        disk = {row[0] for row in self._rows(None, None) if row[2] == FORMAT_VERSION}
        return len(disk | set(self._memory))


_DEFAULT_STORE: Optional[ResultStore] = None


def default_store() -> ResultStore:
    """The process-wide store used by the experiment harness."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ResultStore()
    return _DEFAULT_STORE


def set_default_store(store: Optional[ResultStore]) -> None:
    """Replace the process-wide store (tests point it at a temp directory)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def close_default_connections() -> None:
    """Close the default store's per-process sqlite connection, if any.

    Called from interrupt cleanup in :mod:`repro.sim.parallel`: a
    ``KeyboardInterrupt`` mid-run must not leave the WAL pinned by a handle
    nobody will ever use again.  A no-op when no default store exists.
    """
    if _DEFAULT_STORE is not None:
        _DEFAULT_STORE.close()


__all__ = [
    "BUSY_TIMEOUT_ENV",
    "CACHE_DIR_ENV",
    "CODE_FINGERPRINT_ENV",
    "DEFAULT_CACHE_DIR",
    "FORMAT_VERSION",
    "INLINE_LIMIT",
    "WRITER_PID_FILENAME",
    "GcResult",
    "ResultStore",
    "StoreBusyError",
    "StoreEntry",
    "close_default_connections",
    "code_fingerprint",
    "content_key",
    "default_store",
    "export_code_fingerprint",
    "set_default_store",
]
