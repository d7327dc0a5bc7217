"""Persistent cross-run result store keyed by canonical DDG content hashes.

The :class:`~repro.analysis.context.AnalysisContext` memoizes analyses
within a process; this module extends that memoization *across* processes
and runs, so repeated suite runs and CI stop re-solving identical instances
(the ROADMAP's "cross-run result caching" item).  Two pieces:

* :func:`canonical_graph_hash` -- a content hash of a DDG covering exactly
  what the analyses can observe (operations with their latencies, offsets
  and register types; arcs with their kinds, types and latencies) and
  nothing they cannot (node/arc insertion order, the graph's display name,
  Python object identity).  Two graphs with the same hash are
  indistinguishable to every algorithm in this package, so a result
  computed for one is valid for the other.
* :class:`ResultStore` -- a disk-backed map ``(graph_hash, query, params)
  -> result`` under a versioned schema directory with crash-safe atomic
  writes (write-ahead temp file + ``fsync`` + ``os.replace``, serialized
  per hash-prefix shard by a lock file), safe for concurrent writer
  *processes*.  Values are pickled; a corrupt or mismatching entry reads
  as a miss -- but never silently: it is quarantined to the schema's
  ``corrupt/`` subdirectory, counted in :attr:`StoreStats.corrupt` and
  logged at debug level, so store rot is observable instead of hoped
  away.

The store is **opt-in**: :func:`active_store` returns ``None`` unless the
``REPRO_STORE_DIR`` environment variable names a directory (or
``REPRO_STORE=1`` selects the default ``~/.cache/repro-touati04``), or a
store was activated programmatically with :func:`set_active_store` /
:func:`store_active`.  Clearing the cache is ``rm -rf`` of the directory or
:meth:`ResultStore.clear`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

try:  # POSIX shard locking; Windows falls back to atomic-replace-only.
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None

from ..core.graph import DDG

_log = logging.getLogger(__name__)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "ResultStore",
    "canonical_graph_hash",
    "default_store_dir",
    "active_store",
    "set_active_store",
    "reset_active_store",
    "store_active",
]

#: Bump when the on-disk payload layout (or anything that invalidates every
#: stored result, like the pickle format of the result objects) changes;
#: entries live under ``<root>/v<version>/`` so old schemas never collide.
STORE_SCHEMA_VERSION = 1

#: Environment variables controlling the ambient store.
STORE_DIR_ENV = "REPRO_STORE_DIR"
STORE_ENABLE_ENV = "REPRO_STORE"

_MISS = object()


# --------------------------------------------------------------------------- #
# Canonical graph hashing
# --------------------------------------------------------------------------- #
def _graph_tokens(ddg: DDG) -> Iterator[str]:
    """Canonical serialization of everything the analyses can observe.

    Operations and edges are emitted in sorted order, so the hash is
    invariant under insertion order and under rebuilds that preserve the
    labels; the graph's display name is deliberately excluded (renaming a
    graph cannot change any analysis result).
    """

    yield "ddg-v1"
    for name in sorted(ddg.nodes()):
        op = ddg.operation(name)
        defs = ",".join(sorted(t.name for t in op.defs))
        yield (
            f"op|{name}|{defs}|{op.latency}|{op.delta_r}|{op.delta_w}"
            f"|{op.opcode}|{op.fu_class}"
        )
    edges = sorted(
        (
            e.src,
            e.dst,
            e.kind.value,
            "" if e.rtype is None else e.rtype.name,
            e.latency,
        )
        for e in ddg.edges()
    )
    for src, dst, kind, rtype, latency in edges:
        yield f"edge|{src}|{dst}|{kind}|{rtype}|{latency}"


def canonical_graph_hash(ddg: DDG) -> str:
    """Content hash of *ddg*: equal for semantically identical graphs.

    The hash covers structure, latencies, offsets and register types; it is
    independent of node/arc insertion order and of the graph's name.  Any
    semantic mutation -- a latency, a register type, an extra arc -- changes
    it (property-tested in ``tests/test_result_store.py``).
    """

    digest = hashlib.sha256()
    for token in _graph_tokens(ddg):
        digest.update(token.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _canonical_params(params: object) -> object:
    """Normalize a params structure so equal queries key identically.

    Mappings are sorted by the repr of their canonicalized keys (insertion
    order must not matter), sequences keep their order, sets are sorted.
    Leaves rely on ``repr``, which is deterministic for the value objects
    used as parameters here (str/int/float/bool/None, RegisterType, frozen
    dataclasses).
    """

    if isinstance(params, dict):
        items = [(_canonical_params(k), _canonical_params(v)) for k, v in params.items()]
        return ("dict",) + tuple(sorted(items, key=repr))
    if isinstance(params, (set, frozenset)):
        return ("set",) + tuple(sorted((_canonical_params(v) for v in params), key=repr))
    if isinstance(params, (list, tuple)):
        return ("seq",) + tuple(_canonical_params(v) for v in params)
    return repr(params)


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #
@dataclass
class StoreStats:
    """In-process counters of one :class:`ResultStore` (not persisted).

    ``errors`` totals every read anomaly; ``corrupt`` counts the subset of
    entries that were quarantined (unreadable pickle, wrong payload shape,
    mismatching key fields); ``write_errors`` counts failed writes and
    failed maintenance deletions; ``lock_timeouts`` counts shard locks that
    could not be acquired within the timeout and were quarantined as stale;
    ``stale_tmp_removed`` counts orphaned write-ahead temp files swept on
    open.  The counters exist so fault handling is
    *observable* -- a store that silently eats corruption looks identical
    to a healthy one until results go missing.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    corrupt: int = 0
    write_errors: int = 0
    lock_timeouts: int = 0
    stale_tmp_removed: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from disk (0.0 when none happened)."""

        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "lock_timeouts": self.lock_timeouts,
            "stale_tmp_removed": self.stale_tmp_removed,
            "hit_rate": self.hit_rate,
        }


class ResultStore:
    """Disk-backed ``(graph_hash, query, params) -> result`` map.

    Entries are pickle files under ``<root>/v<schema>/<kk>/<key>.pkl`` where
    ``key`` is the SHA-256 of the lookup triple and ``kk`` its first two hex
    digits -- the *shard*.  Writes follow a write-ahead discipline: pickle
    into a temp file in the final directory, flush + ``fsync``, then
    :func:`os.replace`, all under an ``flock``-ed per-shard lock file, so
    concurrent writer *processes* (the batch engine's process policy,
    parallel CI shards) can only ever race towards complete entries -- a
    reader observes a miss or a fully-written value, never a torn one.
    Reads are lockless (``os.replace`` is atomic) and an entry that fails
    to load is quarantined under ``<root>/v<schema>/corrupt/`` rather than
    silently dropped.
    """

    #: Quarantine subdirectory name (inside the schema dir; deliberately
    #: not two hex digits, so shard globs never pick it up).
    CORRUPT_DIR = "corrupt"

    #: How long a writer waits for a shard lock before declaring the holder
    #: stuck, quarantining the lock file, and retrying on a fresh one.
    DEFAULT_LOCK_TIMEOUT = 10.0

    #: A write-ahead temp file older than this at open time belongs to a
    #: writer that died mid-write; younger ones may be live concurrent puts.
    TMP_GRACE_SECONDS = 60.0

    def __init__(
        self,
        root: Union[str, Path],
        *,
        lock_timeout: Optional[float] = DEFAULT_LOCK_TIMEOUT,
        tmp_grace: float = TMP_GRACE_SECONDS,
    ) -> None:
        self.root = Path(root)
        self._schema_dir = self.root / f"v{STORE_SCHEMA_VERSION}"
        self._lock = threading.Lock()
        self.lock_timeout = lock_timeout
        self.tmp_grace = tmp_grace
        self.stats = StoreStats()
        self._sweep_orphan_tmp()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r})"

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    def _key(self, graph_hash: str, query: str, params: object) -> str:
        digest = hashlib.sha256()
        digest.update(f"{graph_hash}|{query}|".encode("utf-8"))
        digest.update(repr(_canonical_params(params)).encode("utf-8"))
        return digest.hexdigest()

    def path_for(self, graph_hash: str, query: str, params: object = None) -> Path:
        key = self._key(graph_hash, query, params)
        return self._schema_dir / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # Shard locking and quarantine
    # ------------------------------------------------------------------ #
    @property
    def quarantine_dir(self) -> Path:
        return self._schema_dir / self.CORRUPT_DIR

    @contextmanager
    def _shard_lock(self, shard: Path):
        """Exclusive cross-process lock on one hash-prefix shard.

        Backed by ``flock`` on a ``.lock`` file inside the shard directory;
        where ``fcntl`` is unavailable the context degrades to the atomic
        ``os.replace`` guarantees alone (last identical writer wins).

        Acquisition is bounded by ``lock_timeout``: a holder stuck mid-write
        (hung worker, process frozen under a debugger) must not block every
        contender indefinitely.  On timeout the lock *file* is quarantined
        -- renamed into ``corrupt/`` so the stuck holder keeps its flock on
        an orphaned inode -- and contenders coordinate on a fresh lock file
        (counted in :attr:`StoreStats.lock_timeouts`).  After two quarantine
        rounds the writer proceeds unlocked: the atomic-replace discipline
        alone still guarantees readers never observe a torn entry.
        """

        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = shard / ".lock"
        fd: Optional[int] = None
        for round_ in range(3):
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            if self.lock_timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
                break
            deadline = time.monotonic() + self.lock_timeout
            acquired = False
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(min(0.02, self.lock_timeout / 10.0))
            if acquired:
                break
            os.close(fd)
            fd = None
            if round_ < 2:
                self._quarantine_stale_lock(lock_path)
        try:
            yield
        finally:
            if fd is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                finally:
                    os.close(fd)

    def _quarantine_stale_lock(self, lock_path: Path) -> None:
        """Move a lock file whose holder looks stuck out of the way."""

        with self._lock:
            self.stats.lock_timeouts += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / (
                f"{lock_path.parent.name}-{time.time_ns():x}.lock.stale"
            )
            os.replace(lock_path, target)
            _log.debug("quarantined stale shard lock %s -> %s", lock_path, target)
        except OSError as exc:
            # A fellow contender beat us to the rename; its fresh lock file
            # is what the retry round will coordinate on.
            _log.debug("could not quarantine stale lock %s: %s", lock_path, exc)

    def _sweep_orphan_tmp(self) -> int:
        """Remove write-ahead temp files orphaned by writers that died.

        Called on open: a ``.tmp-*.pkl`` older than ``tmp_grace`` seconds
        can no longer belong to a live put (puts hold their shard lock for
        milliseconds), so it is deleted and counted.  Younger temp files are
        left alone -- they may be a concurrent writer mid-``fsync``.
        """

        if not self._schema_dir.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - self.tmp_grace
        for tmp in self._schema_dir.glob("[0-9a-f][0-9a-f]/.tmp-*.pkl"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - lost a race with its writer
                continue
        if removed:
            with self._lock:
                self.stats.stale_tmp_removed += removed
            _log.debug("swept %d orphaned write-ahead temp file(s)", removed)
        return removed

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside (never silently delete it) and count it."""

        with self._lock:
            self.stats.corrupt += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
            _log.debug("quarantined corrupt store entry %s (%s)", path.name, reason)
        except OSError as exc:
            # Another process may have quarantined or rewritten it first.
            with self._lock:
                self.stats.write_errors += 1
            _log.debug("could not quarantine %s (%s): %s", path.name, reason, exc)

    def quarantined_count(self) -> int:
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.glob("*.pkl"))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(
        self,
        graph_hash: str,
        query: str,
        params: object = None,
        default: object = None,
    ) -> object:
        """The stored result, or *default* on a miss.

        A corrupt entry also reads as a miss, but is quarantined and
        counted (:attr:`StoreStats.corrupt`) rather than silently eaten.
        """

        path = self.path_for(graph_hash, query, params)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return default
        except Exception as exc:
            # Unreadable/partial pickle: quarantine it and report a miss.
            with self._lock:
                self.stats.misses += 1
                self.stats.errors += 1
            self._quarantine(path, f"unreadable: {type(exc).__name__}: {exc}")
            return default
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != STORE_SCHEMA_VERSION
            or payload.get("graph_hash") != graph_hash
            or payload.get("query") != query
        ):
            with self._lock:
                self.stats.misses += 1
                self.stats.errors += 1
            self._quarantine(path, "payload shape/key mismatch")
            return default
        with self._lock:
            self.stats.hits += 1
        return payload["value"]

    def put(self, graph_hash: str, query: str, params: object, value: object) -> Path:
        """Durably and atomically store *value*.

        Write-ahead discipline under the shard lock: temp file in the final
        directory, flush + ``fsync``, ``os.replace`` over the entry, then a
        best-effort directory fsync -- a crash at any point leaves either
        the old entry or the new one, never a torn file.  Concurrent puts
        of one key serialize on the shard lock and the last one stands;
        the batch engine writes each key once, after its result is in.
        Write failures propagate to the caller but are counted first
        (:attr:`StoreStats.write_errors`).
        """

        path = self.path_for(graph_hash, query, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "graph_hash": graph_hash,
            "query": query,
            "value": value,
        }
        try:
            with self._shard_lock(path.parent):
                self._write_entry(path, payload)
            self._fsync_dir(path.parent)
        except BaseException as exc:
            with self._lock:
                self.stats.write_errors += 1
            _log.debug("store write failed for %s: %s", path.name, exc)
            raise
        with self._lock:
            self.stats.puts += 1
        return path

    def _write_entry(self, path: Path, payload: dict) -> None:
        """Write-ahead write of one entry (caller holds the shard lock)."""

        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".pkl")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError as unlink_exc:
                with self._lock:
                    self.stats.write_errors += 1
                _log.debug("left stale temp file %s: %s", tmp, unlink_exc)
            raise

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Best-effort directory fsync so the rename itself is durable."""

        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - some filesystems refuse
            pass
        finally:
            os.close(fd)

    def memo(self, graph_hash: str, query: str, params: object, factory):
        """``get`` falling back to ``factory()`` + ``put`` (the common shape)."""

        value = self.get(graph_hash, query, params, default=_MISS)
        if value is not _MISS:
            return value
        value = factory()
        self.put(graph_hash, query, params, value)
        return value

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    #: Glob matching entry shards only (two hex digits -- never ``corrupt/``).
    _SHARD_GLOB = "[0-9a-f][0-9a-f]/*.pkl"

    def entry_count(self) -> int:
        if not self._schema_dir.is_dir():
            return 0
        return sum(1 for _ in self._schema_dir.glob(self._SHARD_GLOB))

    def clear(self) -> int:
        """Delete every live entry of the current schema; returns how many.

        Quarantined entries survive a :meth:`clear` (they are evidence of
        corruption, removable with ``rm -rf`` once inspected).  Deletion
        failures are counted and logged, never silently swallowed.
        """

        removed = 0
        if self._schema_dir.is_dir():
            for entry in self._schema_dir.glob(self._SHARD_GLOB):
                try:
                    entry.unlink()
                    removed += 1
                except OSError as exc:
                    with self._lock:
                        self.stats.write_errors += 1
                    _log.debug("clear could not delete %s: %s", entry, exc)
        return removed


# --------------------------------------------------------------------------- #
# Ambient store (opt-in)
# --------------------------------------------------------------------------- #
#: Explicit override set by set_active_store/store_active; the sentinel
#: means "not overridden, consult the environment".
_ACTIVE_OVERRIDE: object = _MISS
_ENV_STORES: Dict[str, ResultStore] = {}
_AMBIENT_LOCK = threading.Lock()


def default_store_dir() -> Path:
    """``$REPRO_STORE_DIR``, else ``$XDG_CACHE_HOME``/``~/.cache`` + ``repro-touati04``."""

    explicit = os.environ.get(STORE_DIR_ENV, "").strip()
    if explicit:
        return Path(explicit)
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro-touati04"


def active_store() -> Optional[ResultStore]:
    """The ambient :class:`ResultStore`, or ``None`` when persistence is off.

    Explicit :func:`set_active_store` / :func:`store_active` wins; otherwise
    ``REPRO_STORE_DIR=<dir>`` (or ``REPRO_STORE=1`` for the default cache
    location) switches persistence on.  Store objects are shared per
    directory so hit/miss statistics aggregate per process.
    """

    if _ACTIVE_OVERRIDE is not _MISS:
        return _ACTIVE_OVERRIDE  # type: ignore[return-value]
    explicit = os.environ.get(STORE_DIR_ENV, "").strip()
    enabled = os.environ.get(STORE_ENABLE_ENV, "").strip().lower()
    if not explicit and enabled not in ("1", "on", "true", "yes"):
        return None
    directory = str(default_store_dir())
    with _AMBIENT_LOCK:
        store = _ENV_STORES.get(directory)
        if store is None:
            store = _ENV_STORES.setdefault(directory, ResultStore(directory))
    return store


def set_active_store(store: Optional[ResultStore]) -> None:
    """Force the ambient store (``None`` disables persistence regardless of env)."""

    global _ACTIVE_OVERRIDE
    _ACTIVE_OVERRIDE = store


def reset_active_store() -> None:
    """Drop any explicit override; the environment decides again."""

    global _ACTIVE_OVERRIDE
    _ACTIVE_OVERRIDE = _MISS


@contextmanager
def store_active(store: Union[None, str, Path, ResultStore]):
    """Activate *store* (a :class:`ResultStore` or a directory) for a block."""

    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    global _ACTIVE_OVERRIDE
    previous = _ACTIVE_OVERRIDE
    _ACTIVE_OVERRIDE = store
    try:
        yield store
    finally:
        _ACTIVE_OVERRIDE = previous
