"""A sqlite-backed, content-addressed repository of simulation results.

Where the flat-file :class:`~repro.sim.parallel.ResultCache` spreads
pickles over a directory tree, :class:`SqliteResultStore` keeps one
durable database:

* **Same keys.**  Rows are addressed by the exact content key the
  flat-file cache computes (:func:`repro.sim.parallel.cell_cache_parts`
  — sha256 over trace fingerprint x config fingerprint x
  ``CACHE_VERSION``), so switching backends never changes which cells
  hit; a sweep served from the store is byte-identical to one served
  from the flat-file cache or computed inline.
* **Provenance.**  Each row carries the trace and config fingerprints
  it was keyed from, the trace/scheme labels of the result, the cache
  version, writer PID, and a wall-clock timestamp — enough to answer
  "where did this number come from" without unpickling anything.
* **Concurrent readers, single writer.**  The database runs in WAL
  mode: any number of processes read while one writes, and writes are
  single transactions (``BEGIN IMMEDIATE`` ... ``COMMIT``), so a reader
  observes either the full old row or the full new row for a key —
  never a torn one.
* **Never fails a sweep.**  The store keeps the contract every cache
  shares (:mod:`repro.atomicfile`), with the same payload codec as the
  flat-file cache: a put that cannot complete — serialization failure,
  locked or read-only database, disk full — bumps ``puts_failed`` and
  returns ``False`` instead of raising
  (:func:`repro.sim.parallel.run_cells` surfaces that as a
  ``"cache-error"`` event), and a row that cannot be decoded is a
  counted miss.  Even *opening* the store degrades: an unusable path
  yields a disabled store whose gets miss and whose puts fail counted,
  not a crashed sweep.

``REPRO_STORE=/path/results.sqlite`` makes
:func:`repro.sim.parallel.default_cache` hand this store to every
sweep; :mod:`repro.service` keys its incremental recompute off the
same rows.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro import atomicfile
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.parallel import SweepJob

#: Bump when the table layout changes incompatibly.  A database created
#: by a *newer* layout is left untouched (the store disables itself
#: with a warning rather than corrupting it).
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key                TEXT PRIMARY KEY,
    cache_version      INTEGER NOT NULL,
    trace_fingerprint  TEXT,
    config_fingerprint TEXT,
    trace_name         TEXT,
    scheme_label       TEXT,
    created_at         REAL NOT NULL,
    writer_pid         INTEGER NOT NULL,
    payload            BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_trace
    ON results (trace_fingerprint);
CREATE TABLE IF NOT EXISTS store_meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: How long a writer waits on a cross-process lock before giving up
#: (sqlite ``busy_timeout``); generous because a competing writer holds
#: the lock for one row insert.
BUSY_TIMEOUT_MS = 30_000


@dataclass(frozen=True, slots=True)
class StoredProvenance:
    """The provenance columns of one stored row (no payload)."""

    key: str
    cache_version: int
    trace_fingerprint: str | None
    config_fingerprint: str | None
    trace_name: str | None
    scheme_label: str | None
    created_at: float
    writer_pid: int


class SqliteResultStore:
    """Content-addressed :class:`SimulationResult` rows in one sqlite db.

    Implements the ``ResultCache`` protocol (``key_for`` / ``get`` /
    ``put`` plus the ``hits`` / ``misses`` / ``puts_failed`` counters),
    so everything that takes a cache — :func:`~repro.sim.parallel.run_cells`,
    the sweep helpers, :class:`~repro.sim.parallel.WorkerPool`
    write-through, the CLI — takes this store unchanged.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self.puts_failed = 0
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._disabled = False
        #: key -> (trace_fp, config_fp), remembered by :meth:`key_for`
        #: so :meth:`put` can fill the provenance columns.
        self._pending_provenance: dict[str, tuple[str, str]] = {}
        self._open()

    # -- connection / schema ------------------------------------------------

    @property
    def root(self) -> Path:
        """Where the store lives (parallel to ``ResultCache.root``)."""
        return self.path

    def _open(self) -> None:
        try:
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_MS / 1000.0,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM store_meta WHERE name='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO store_meta (name, value) "
                    "VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                conn.commit()
            elif int(row[0]) > SCHEMA_VERSION:
                conn.close()
                raise sqlite3.OperationalError(
                    f"store schema v{row[0]} is newer than this code "
                    f"(v{SCHEMA_VERSION})"
                )
            self._conn = conn
        except (sqlite3.Error, OSError, ValueError) as exc:
            warnings.warn(
                f"result store {self.path} is unusable ({exc}); "
                "gets will miss and puts will fail counted",
                RuntimeWarning,
                stacklevel=3,
            )
            self._conn = None
            self._disabled = True

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None
            self._disabled = True

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ResultCache protocol ----------------------------------------------

    def key_for(self, job: "SweepJob") -> str | None:
        from repro.sim.parallel import cell_cache_parts

        parts = cell_cache_parts(job.trace, job.config)
        if parts is None:
            return None
        key, trace_fp, cfg_fp = parts
        with self._lock:
            self._pending_provenance[key] = (trace_fp, cfg_fp)
        return key

    def get(self, key: str) -> SimulationResult | None:
        with self._lock:
            if self._conn is None:
                self.misses += 1
                return None
            try:
                row = self._conn.execute(
                    "SELECT payload FROM results WHERE key=?", (key,)
                ).fetchone()
            except sqlite3.Error:
                self.misses += 1
                return None
        result = None if row is None else atomicfile.read_entry(
            lambda: atomicfile.decode(row[0]), SimulationResult
        )
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> bool:
        """Write one row through; ``False`` (counted) on any failure.

        The row replaces an existing one for the key atomically inside
        a ``BEGIN IMMEDIATE`` transaction, so concurrent readers —
        including other processes — observe the old payload or the new
        one, never a torn mix.
        """
        try:
            payload = atomicfile.encode(result)
        except atomicfile.PUT_FAILURES:
            self.puts_failed += 1
            return False
        with self._lock:
            trace_fp, cfg_fp = self._pending_provenance.pop(
                key, (None, None)
            )
            if self._conn is None:
                self.puts_failed += 1
                return False
            from repro.sim.parallel import CACHE_VERSION

            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, cache_version, trace_fingerprint, "
                    " config_fingerprint, trace_name, scheme_label, "
                    " created_at, writer_pid, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        CACHE_VERSION,
                        trace_fp,
                        cfg_fp,
                        getattr(result, "trace_name", None),
                        getattr(result, "scheme_label", None),
                        time.time(),
                        os.getpid(),
                        payload,
                    ),
                )
                self._conn.commit()
            except sqlite3.Error:
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                self.puts_failed += 1
                return False
        return True

    # -- repository extras --------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a row exists for ``key`` — no counter bump, no
        payload unpickling (incremental-recompute planning)."""
        with self._lock:
            if self._conn is None:
                return False
            try:
                row = self._conn.execute(
                    "SELECT 1 FROM results WHERE key=?", (key,)
                ).fetchone()
            except sqlite3.Error:
                return False
        return row is not None

    def provenance(self, key: str) -> StoredProvenance | None:
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT key, cache_version, trace_fingerprint, "
                    "config_fingerprint, trace_name, scheme_label, "
                    "created_at, writer_pid FROM results WHERE key=?",
                    (key,),
                ).fetchone()
            except sqlite3.Error:
                return None
        return None if row is None else StoredProvenance(*row)

    def keys(self) -> Iterator[str]:
        with self._lock:
            if self._conn is None:
                return iter(())
            try:
                rows = self._conn.execute(
                    "SELECT key FROM results ORDER BY key"
                ).fetchall()
            except sqlite3.Error:
                return iter(())
        return (row[0] for row in rows)

    def __len__(self) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
            except sqlite3.Error:
                return 0
        return int(row[0])

    def stats(self) -> dict[str, Any]:
        """Counters plus row count, for service/CLI reporting."""
        return {
            "path": str(self.path),
            "rows": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "puts_failed": self.puts_failed,
            "disabled": self._disabled,
        }
