"""Persistent result store: instance-keyed reuse of prior solves.

Repeated experiment grids (threshold sweeps, parameter studies,
regression reruns) mostly re-solve instances that have been solved
before.  This module gives the batch engine a content-addressed cache
for those solves:

* :func:`instance_key` — a canonical SHA-256 over the *semantic*
  identity of a query: serialised application + platform (via
  :mod:`repro.core.serialization`), solver name and version, threshold,
  and the effective options (including the derived per-task seed).
  Equal queries hash equally across processes and sessions; any change
  to the instance, solver or options changes the key.
* :class:`ResultStore` backends — in-memory, single-file JSON
  (human-inspectable, good for small corpora) and SQLite (concurrent-
  reader friendly, good for large grids) — all with hit/miss/write
  statistics.
* **eviction/GC** — every backend takes a ``max_records`` cap enforced
  with least-recently-used pruning (while capped, a hit refreshes a
  record's recency; uncapped lookups stay read-only), plus an explicit
  :meth:`ResultStore.prune` API for one-off garbage collection of an
  uncapped store (write-order eviction there); evictions are counted
  in :class:`StoreStats`.  Recency survives reopening for the
  persistent backends (JSON keeps dict order, SQLite keeps an indexed
  ``seq`` column).
* **concurrent access** — the SQLite backend opens in WAL mode with a
  busy timeout, so many processes (clients of one store file, or the
  solve service's store server) read and write concurrently without
  ``database is locked`` failures; :class:`ThreadSafeStore` wraps any
  backend behind one lock so threads inside one process (the service's
  worker pool) can share a single store instance.
* :func:`open_store` — backend selection by path (``:memory:``,
  ``*.json``, anything else → SQLite), with ``threadsafe=True``
  returning the wrapped store.

Stores hold plain JSON records (the batch layer owns the
outcome <-> record codec), so they stay decoupled from the executor and
usable by external tooling.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..core.application import PipelineApplication
from ..core.platform import Platform
from ..core.serialization import (
    application_to_dict,
    canonical_json,
    platform_to_dict,
)
from ..exceptions import ReproError

__all__ = [
    "instance_key",
    "StoreStats",
    "ResultStore",
    "MemoryStore",
    "JSONStore",
    "SQLiteStore",
    "ThreadSafeStore",
    "open_store",
]

#: bump when the record layout or key derivation changes incompatibly
_STORE_SCHEMA = 1


def instance_key(
    solver: str,
    application: PipelineApplication,
    platform: Platform,
    threshold: float | None = None,
    opts: Mapping[str, Any] | None = None,
    *,
    solver_version: int = 1,
) -> str:
    """Canonical content hash of one solver query.

    The key covers everything that determines the result: the full
    serialised instance, the solver (name + registry version, so a
    solver fix invalidates its old entries), the threshold, and the
    *effective* options — for seeded solvers that includes the derived
    per-task seed, which is what makes cached heuristic results
    deterministic to reuse.
    """
    payload = {
        "schema": _STORE_SCHEMA,
        "solver": solver,
        "solver_version": solver_version,
        "application": application_to_dict(application),
        "platform": platform_to_dict(platform),
        "threshold": threshold,
        "opts": dict(opts or {}),
    }
    digest = hashlib.sha256(canonical_json(payload).encode("ascii"))
    return digest.hexdigest()


@dataclass
class StoreStats:
    """Hit/miss/write/eviction counters for one store lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResultStore:
    """Base class: stat-keeping wrapper over a key -> record mapping.

    Subclasses implement ``_get``/``_put``/``_keys``/``_touch``/
    ``_delete``/``_lru_keys``/``close``; records are JSON-compatible
    dicts.  Stores are context managers (``close`` on exit).

    ``max_records`` caps the record count: every :meth:`put` that grows
    the store past the cap evicts the least-recently-*used* records (a
    hit counts as use) until the cap holds again.  ``None`` (default)
    means unbounded, with :meth:`prune` available for explicit GC.
    """

    max_records: int | None = None
    stats: StoreStats = field(default_factory=StoreStats, init=False)

    def __post_init__(self) -> None:
        if self.max_records is not None and self.max_records < 1:
            raise ReproError(
                f"max_records must be >= 1, got {self.max_records}"
            )

    def get(self, key: str) -> dict[str, Any] | None:
        """Record for ``key`` (counting a hit) or None (a miss).

        With a cap set, a hit also refreshes the record's recency.
        Uncapped stores skip the touch: lookups stay read-only (no
        write transactions on the SQLite hot path), and :meth:`prune`
        then evicts by write order instead of use order.
        """
        record = self._get(key)
        if record is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            if self.max_records is not None:
                self._touch(key)
        return record

    def peek(self, key: str) -> dict[str, Any] | None:
        """Record for ``key`` without counting stats or touching recency.

        An inspection probe, not a read: it leaves hit/miss counters and
        LRU order exactly as they were, so a caller can look at what the
        store holds without changing what a later run reports.
        """
        return self._get(key)

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Insert/overwrite the record for ``key`` (enforcing the cap)."""
        self._put(key, dict(record))
        self.stats.writes += 1
        if self.max_records is not None:
            self.prune()

    def prune(self, max_records: int | None = None) -> int:
        """Evict least-recently-used records beyond the cap.

        ``max_records`` overrides the store's configured cap for this
        call (explicit GC of an uncapped store — which tracks no use
        recency, so eviction there falls back to write order); with
        neither set this is a no-op.  Returns the number of evicted
        records.
        """
        limit = self.max_records if max_records is None else max_records
        if limit is None:
            return 0
        if limit < 0:
            raise ReproError(f"prune limit must be >= 0, got {limit}")
        excess = len(self) - limit
        if excess <= 0:
            return 0
        for key in list(self._lru_keys())[:excess]:
            self._delete(key)
        self.stats.evictions += excess
        return excess

    def __contains__(self, key: str) -> bool:
        return self._get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self._keys())

    def keys(self) -> Iterator[str]:
        return self._keys()

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- backend hooks -------------------------------------------------
    def _get(self, key: str) -> dict[str, Any] | None:
        raise NotImplementedError

    def _put(self, key: str, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def _keys(self) -> Iterator[str]:
        raise NotImplementedError

    def _touch(self, key: str) -> None:
        """Refresh ``key``'s recency (called on every hit)."""
        raise NotImplementedError

    def _delete(self, key: str) -> None:
        raise NotImplementedError

    def _lru_keys(self) -> Iterator[str]:
        """Keys in least-recently-used-first order."""
        raise NotImplementedError


class MemoryStore(ResultStore):
    """Process-local store (tests, one-shot scripts).

    Dict insertion order doubles as the recency order: hits and
    overwrites move the key to the back, evictions pop from the front.
    """

    def __init__(self, *, max_records: int | None = None) -> None:
        super().__init__(max_records)
        self._data: dict[str, dict[str, Any]] = {}

    def _get(self, key: str) -> dict[str, Any] | None:
        return self._data.get(key)

    def _put(self, key: str, record: dict[str, Any]) -> None:
        self._data.pop(key, None)  # re-insert so overwrite refreshes recency
        self._data[key] = record

    def _keys(self) -> Iterator[str]:
        return iter(list(self._data))

    def _touch(self, key: str) -> None:
        self._data[key] = self._data.pop(key)

    def _delete(self, key: str) -> None:
        self._data.pop(key, None)

    def _lru_keys(self) -> Iterator[str]:
        return iter(list(self._data))

    def __len__(self) -> int:
        return len(self._data)


class JSONStore(ResultStore):
    """Single-file JSON store (atomic rewrite, batched).

    Human-inspectable and diff-friendly; intended for small/medium
    corpora.  The whole file is loaded at open; writes are batched —
    the file is rewritten (temp file + rename, so a crash never leaves
    a half-written store behind) every ``flush_every`` puts and on
    :meth:`close`/context-manager exit, keeping a cold N-task batch at
    O(N/flush_every) rewrites instead of O(N).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        flush_every: int = 32,
        max_records: int | None = None,
    ) -> None:
        super().__init__(max_records)
        self.path = os.fspath(path)
        self._flush_every = max(1, flush_every)
        self._pending = 0
        self._dirty = False
        self._data: dict[str, dict[str, Any]] = {}
        if os.path.exists(self.path):
            try:
                with open(self.path, encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                # a truncated/corrupt file (partial copy, editor crash,
                # disk fault) is a cache, not data: quarantine it and
                # start fresh instead of refusing to open.  Unknown
                # *schemas* still raise — that file is intact and may
                # belong to a newer library version.
                quarantine = self.path + ".corrupt"
                os.replace(self.path, quarantine)
                warnings.warn(
                    f"store {self.path!r} is not valid JSON ({exc}); "
                    f"moved it to {quarantine!r} and started fresh",
                    stacklevel=2,
                )
            else:
                if payload.get("schema") != _STORE_SCHEMA:
                    raise ReproError(
                        f"store {self.path!r} has unsupported schema "
                        f"{payload.get('schema')!r}"
                    )
                self._data = payload["records"]
        # a freshly applied (or tightened) cap prunes the loaded records
        if self.max_records is not None and len(self._data) > self.max_records:
            self.prune()

    def _get(self, key: str) -> dict[str, Any] | None:
        return self._data.get(key)

    def _put(self, key: str, record: dict[str, Any]) -> None:
        self._data.pop(key, None)  # re-insert so overwrite refreshes recency
        self._data[key] = record
        self._pending += 1
        if self._pending >= self._flush_every:
            self.flush()

    def _keys(self) -> Iterator[str]:
        return iter(list(self._data))

    def _touch(self, key: str) -> None:
        # recency-only change: reorder now, persist with the next flush
        # (or at close) instead of rewriting the file per lookup
        self._data[key] = self._data.pop(key)
        self._dirty = True

    def _delete(self, key: str) -> None:
        self._data.pop(key, None)
        self._dirty = True

    def _lru_keys(self) -> Iterator[str]:
        return iter(list(self._data))

    def __len__(self) -> int:
        return len(self._data)

    def close(self) -> None:
        if self._pending or self._dirty:
            self.flush()

    def flush(self) -> None:
        """Atomically rewrite the backing file with the current records."""
        self._pending = 0
        self._dirty = False
        payload = {"schema": _STORE_SCHEMA, "records": self._data}
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(
            prefix=".store-", suffix=".json", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # no sort_keys: the records map's insertion order *is*
                # the LRU order, and must survive a reopen for the cap
                # to evict the genuinely oldest entries
                json.dump(payload, fh, indent=1)
            os.replace(tmp, self.path)
        except BaseException:  # pragma: no cover - crash-safety path
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


#: default budget (seconds) a connection waits on another writer's lock
#: before giving up — generous, because a blocked solve is cheaper than
#: a spurious ``database is locked`` under concurrent clients
_BUSY_TIMEOUT = 30.0


class SQLiteStore(ResultStore):
    """SQLite-backed store (scales to large grids, concurrent clients).

    Recency lives in a monotonically increasing ``seq`` column (bumped
    on every put *and* hit), so LRU eviction order survives reopening.
    Pre-eviction databases without the column are migrated in place.

    The connection opens in **WAL mode** (readers never block the
    writer, the writer never blocks readers) with a ``busy_timeout`` so
    concurrent writers queue behind the lock instead of failing with
    ``database is locked`` — many processes (or the solve service's
    store server) can share one store file.  WAL needs a filesystem
    with shared-memory support; where the pragma is refused (network
    mounts, read-only media) the store falls back to the default
    journal silently.  The connection allows cross-thread use
    (``check_same_thread=False``); *serialising* those threads is the
    caller's job — wrap the store in :class:`ThreadSafeStore` to share
    one instance across a thread pool.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        max_records: int | None = None,
        busy_timeout: float = _BUSY_TIMEOUT,
        wal: bool = True,
    ) -> None:
        super().__init__(max_records)
        self.path = os.fspath(path)
        self._conn = sqlite3.connect(
            self.path, timeout=busy_timeout, check_same_thread=False
        )
        if wal:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                # WAL makes synchronous=NORMAL durable enough for a
                # cache (a crash can only lose the latest transactions,
                # never corrupt the database) and much faster
                self._conn.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.DatabaseError:  # pragma: no cover - odd FS
                pass
        # connect(timeout=...) already arms the busy handler; the pragma
        # makes the value visible to PRAGMA busy_timeout introspection
        self._conn.execute(
            f"PRAGMA busy_timeout={int(busy_timeout * 1000)}"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " schema INTEGER NOT NULL,"
            " record TEXT NOT NULL,"
            " seq INTEGER NOT NULL DEFAULT 0)"
        )
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(results)")
        }
        if "seq" not in columns:  # pre-eviction database: migrate in place
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN seq INTEGER NOT NULL DEFAULT 0"
            )
        # MAX(seq) runs on every put (and every hit when capped); the
        # index keeps that O(log n) instead of a table scan
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS results_seq ON results (seq)"
        )
        self._conn.commit()
        if self.max_records is not None and len(self) > self.max_records:
            self.prune()

    def _next_seq(self) -> int:
        row = self._conn.execute("SELECT MAX(seq) FROM results").fetchone()
        return (row[0] or 0) + 1

    def _get(self, key: str) -> dict[str, Any] | None:
        row = self._conn.execute(
            "SELECT schema, record FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        schema, record = row
        if schema != _STORE_SCHEMA:
            return None  # stale schema: treat as a miss, will be rewritten
        return json.loads(record)

    def _put(self, key: str, record: dict[str, Any]) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO results (key, schema, record, seq) "
            "VALUES (?, ?, ?, ?)",
            (
                key,
                _STORE_SCHEMA,
                json.dumps(record, sort_keys=True),
                self._next_seq(),
            ),
        )
        self._conn.commit()

    def _keys(self) -> Iterator[str]:
        return (
            row[0]
            for row in self._conn.execute("SELECT key FROM results").fetchall()
        )

    def _touch(self, key: str) -> None:
        self._conn.execute(
            "UPDATE results SET seq = ? WHERE key = ?",
            (self._next_seq(), key),
        )
        self._conn.commit()

    def _delete(self, key: str) -> None:
        self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
        self._conn.commit()

    def _lru_keys(self) -> Iterator[str]:
        return (
            row[0]
            for row in self._conn.execute(
                "SELECT key FROM results ORDER BY seq ASC, key ASC"
            ).fetchall()
        )

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def close(self) -> None:
        self._conn.close()


class ThreadSafeStore(ResultStore):
    """Serialise every operation of a wrapped store behind one lock.

    The solve service shares a single store instance — its *store
    server* — across a pool of worker threads; the plain backends keep
    their stat counters and LRU bookkeeping unguarded (they were built
    for one thread at a time), so the service wraps them here.  The
    wrapper shares the inner store's :class:`StoreStats` object, so
    ``wrapped.stats`` and ``inner.stats`` are one set of counters.

    Locking is coarse (one reentrant lock around every call): store
    operations are short compared to solves, and correctness under
    contention beats fine-grained speed for a cache.
    """

    def __init__(self, inner: ResultStore) -> None:
        if isinstance(inner, ThreadSafeStore):
            raise ReproError("store is already wrapped in ThreadSafeStore")
        super().__init__(inner.max_records)
        self.inner = inner
        self.stats = inner.stats  # one shared counter set
        self._lock = threading.RLock()

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            return self.inner.get(key)

    def peek(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            return self.inner.peek(key)

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        with self._lock:
            self.inner.put(key, record)

    def prune(self, max_records: int | None = None) -> int:
        with self._lock:
            return self.inner.prune(max_records)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self.inner

    def __len__(self) -> int:
        with self._lock:
            return len(self.inner)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self.inner.keys()))

    def close(self) -> None:
        with self._lock:
            self.inner.close()


def open_store(
    path: str | os.PathLike[str],
    *,
    max_records: int | None = None,
    threadsafe: bool = False,
) -> ResultStore:
    """Open a result store by path.

    ``":memory:"`` → :class:`MemoryStore`; a ``.json`` suffix →
    :class:`JSONStore`; anything else → :class:`SQLiteStore`.
    ``max_records`` applies the LRU record cap to whichever backend is
    selected; ``threadsafe=True`` wraps the store in
    :class:`ThreadSafeStore` so one instance can be shared across
    threads (the solve service does this for its store server).
    """
    spec = os.fspath(path)
    if spec == ":memory:":
        store: ResultStore = MemoryStore(max_records=max_records)
    elif spec.endswith(".json"):
        store = JSONStore(spec, max_records=max_records)
    else:
        store = SQLiteStore(spec, max_records=max_records)
    return ThreadSafeStore(store) if threadsafe else store
