"""Parallel sweep execution: fan sweep cells out over worker processes.

The paper's results are grids — Figure 3 sweeps subpage size x memory
size, Figure 9 sweeps applications x schemes — and every cell is an
independent :func:`~repro.sim.simulator.simulate` call.  This module is
the execution substrate those grids (and any future, larger studies) run
on:

* :func:`run_cells` fans a list of :class:`SweepJob` cells out to a
  ``concurrent.futures.ProcessPoolExecutor``.  Cells whose payload does
  not pickle (e.g. a config holding an ad-hoc latency-model instance)
  fail their future and re-run inline, and the whole batch runs inline
  when ``workers <= 1`` — so results are always bit-identical to a
  serial run (the simulator is deterministic and shares no state across
  cells).
* :class:`WorkerPool` is the persistent execution substrate: a
  long-lived process pool plus a
  :class:`~repro.sim.shm.SharedTraceArena` that writes each unique
  trace's arrays once to a file the workers map zero-copy, so jobs ship
  a tiny :class:`~repro.sim.shm.TraceHandle` instead of pickling the
  arrays per cell.  ``experiments.common.execution_scope`` creates one
  pool and reuses it across every ``run_cells`` batch in the scope.
* :class:`ResultCache` is a content-keyed on-disk cache: a cell's key
  hashes the trace fingerprint (array contents + granularities) together
  with every configuration field, so re-running an experiment skips
  completed cells and any input change misses cleanly.
* :class:`CellEvent` progress callbacks report per-cell status and
  timing; ``python -m repro.experiments --progress`` surfaces them.
  Pooled cells are collected ``as_completed``, so events and cache
  write-through happen as cells finish, not in submission order.

Environment knobs: ``REPRO_WORKERS`` sets the default worker count,
``REPRO_CACHE_DIR`` enables (and locates) the default flat-file result
cache, ``REPRO_STORE`` selects the sqlite-backed
:class:`repro.store.SqliteResultStore` instead (same keys, same
protocol — see :mod:`repro.store`).  Malformed knob values degrade to
the documented defaults with a warning (:mod:`repro.envknobs`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import atomicfile
from repro.envknobs import env_int, env_str
from repro.errors import ConfigError
from repro.sim import shm
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.shm import SharedTraceArena, TraceHandle
from repro.sim.simulator import simulate
from repro.trace.compress import RunTrace

#: Environment variable naming the default worker count.
ENV_WORKERS = "REPRO_WORKERS"

#: Environment variable naming the default on-disk cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable naming a sqlite result-store path; when set it
#: takes precedence over ``REPRO_CACHE_DIR`` (see :mod:`repro.store`).
ENV_STORE = "REPRO_STORE"

#: Bumped whenever simulator semantics change in a way that invalidates
#: previously cached results.  v2: lazy-scheme follow-on arrivals route
#: through the congestion model (wire_end_ms fix) and results carry
#: observability payload fields.  v3: the ``engine`` config field joins
#: the fingerprint (via ``dataclasses.fields``), GMS putpage keeps
#: shared-copy directory entries intact, and queued background transfers
#: shift their whole arrival schedule (zero-time edge).  v4: results
#: carry the adaptive-policy ``policy_stats`` field and the
#: ``"adaptive"`` meta-scheme joins the registry (repro.policy).  v5:
#: config fingerprints switch from per-field ``repr()`` to the
#: canonical recursive encoding (see :func:`config_fingerprint`), so
#: every pre-v5 key is unreachable by construction.  v6: results derive
#: ``stall_intervals`` from their fault records instead of storing them,
#: and the ``track_distances`` config field is gone.  v7: results keep
#: their faults as a columnar ``FaultLog`` of NumPy arrays in place of a
#: list of ``FaultRecord`` objects, and the ``record_faults`` config
#: field is gone.  v8: the fault log gains the eviction columns
#: (``victim``, ``victim_dirty``, ``cancelled``), and the result's fault
#: counters and per-fault components are derived from it.
CACHE_VERSION = 8

@dataclass(frozen=True, slots=True)
class SweepJob:
    """One sweep cell: a trace (or handle) plus a configuration.

    ``key`` identifies the cell in :func:`run_cells`'s result mapping and
    in progress events; it must be unique within a batch and hashable.
    ``trace`` may also be a :class:`~repro.sim.shm.TraceHandle`
    published by a :class:`~repro.sim.shm.SharedTraceArena`.
    """

    key: Any
    trace: RunTrace | TraceHandle
    config: SimulationConfig


@dataclass(frozen=True, slots=True)
class CellEvent:
    """Progress report for one sweep cell.

    ``status`` is ``"done"`` (computed), ``"cached"`` (served from the
    result cache) or ``"retried"`` (computed inline after its payload
    could not be pickled to a worker, or a worker or the pool itself
    failed mid-batch).  ``elapsed_s`` is the cell's own compute time
    (zero for cache hits).

    One extra event kind rides the same stream: ``"cache-error"``,
    emitted *in addition to* the cell's completion event when its
    result could not be written through to the cache (see
    :attr:`ResultCache.puts_failed`).
    """

    key: Any
    status: str
    elapsed_s: float


ProgressCallback = Callable[[CellEvent], None]


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (defaults to 1 = serial).

    Values below 1 clamp to serial; a malformed value degrades to the
    default with a warning instead of aborting the sweep.
    """
    return env_int(ENV_WORKERS, 1, minimum=1, clamp=True)


def default_cache() -> "ResultCache | None":
    """The result cache the environment asks for (``None`` disables).

    ``REPRO_STORE`` (a sqlite database path) selects the durable
    :class:`repro.store.SqliteResultStore`; otherwise
    ``REPRO_CACHE_DIR`` selects the flat-file :class:`ResultCache`.
    Both implement the same get/put protocol and compute identical
    content keys, so which one serves a sweep never changes its
    results.
    """
    store_path = env_str(ENV_STORE)
    if store_path:
        from repro.store import SqliteResultStore

        return SqliteResultStore(store_path)
    raw = env_str(ENV_CACHE_DIR)
    return ResultCache(raw) if raw else None


# -- content fingerprints ---------------------------------------------------


def trace_fingerprint(trace: RunTrace | TraceHandle) -> str:
    """A stable content fingerprint for a trace or handle.

    Materialized traces hash their run arrays and granularities (cached
    on the trace — see :meth:`RunTrace.fingerprint`); handles carry the
    fingerprint of the trace they were published from, so a cell keys
    the same whether it ships arrays or a handle.
    """
    if isinstance(trace, TraceHandle):
        return trace.fingerprint
    return trace.fingerprint()


def _canonical(value: Any) -> str | None:
    """Canonical type-tagged encoding of one config field value.

    ``repr()`` is not a cache key: dicts encode in insertion order,
    ``1`` and ``1.0`` (or ``True``) collide, and float reprs can drift
    across platforms.  This encoding sorts every mapping and set,
    tags each scalar with its type, and spells floats as exact hex —
    equal values always encode equally, unequal types never collide.
    Returns ``None`` for any type it does not know (live model
    instances, ad-hoc objects): the cell is then not
    content-addressable and must not be cached.
    """
    if value is None or value is True or value is False:
        return repr(value)
    if isinstance(value, str):
        return f"s:{value!r}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value.hex()}"
    if isinstance(value, bytes):
        return f"b:{value!r}"
    if isinstance(value, dict):
        items = []
        for key, val in value.items():
            ekey, eval_ = _canonical(key), _canonical(val)
            if ekey is None or eval_ is None:
                return None
            items.append(f"{ekey}={eval_}")
        return "d{" + ",".join(sorted(items)) + "}"
    if isinstance(value, (list, tuple)):
        parts = [_canonical(item) for item in value]
        if any(part is None for part in parts):
            return None
        open_, close = ("l[", "]") if isinstance(value, list) else ("t(", ")")
        return open_ + ",".join(parts) + close
    if isinstance(value, (set, frozenset)):
        parts = [_canonical(item) for item in value]
        if any(part is None for part in parts):
            return None
        return "S{" + ",".join(sorted(parts)) + "}"
    return None


def config_fingerprint(config: SimulationConfig) -> str | None:
    """A stable fingerprint of every config field, or ``None``.

    ``None`` means the configuration is not content-addressable (it
    carries live model instances whose behaviour we cannot hash, or a
    value of a type :func:`_canonical` does not cover) and the cell
    must not be cached.  Two equal configs fingerprint equally whatever
    the insertion order of their nested dicts/sets (the encoding is
    canonical — see :func:`_canonical`).
    """
    if not isinstance(config.scheme, str):
        return None
    if config.latency_model is not None:
        return None
    parts = []
    for f in dataclasses.fields(config):
        encoded = _canonical(getattr(config, f.name))
        if encoded is None:
            return None
        parts.append(f"{f.name}={encoded}")
    return ";".join(parts)


def cell_cache_parts(
    trace: RunTrace | TraceHandle, config: SimulationConfig
) -> "tuple[str, str, str] | None":
    """``(key, trace_fingerprint, config_fingerprint)`` for one cell.

    ``None`` when the cell is uncacheable.  The key hashes
    ``v{CACHE_VERSION}|trace_fp|config_fp``; the store keeps the two
    fingerprints as provenance columns alongside the key.
    """
    cfg_fp = config_fingerprint(config)
    if cfg_fp is None:
        return None
    trace_fp = trace_fingerprint(trace)
    payload = f"v{CACHE_VERSION}|{trace_fp}|{cfg_fp}"
    return hashlib.sha256(payload.encode()).hexdigest(), trace_fp, cfg_fp


def cell_cache_key(
    trace: RunTrace | TraceHandle, config: SimulationConfig
) -> str | None:
    """Content key for one cell, or ``None`` when uncacheable."""
    parts = cell_cache_parts(trace, config)
    return None if parts is None else parts[0]


# -- on-disk result cache ---------------------------------------------------


class ResultCache:
    """Content-keyed on-disk cache of :class:`SimulationResult` pickles.

    Entries live under ``root/<key[:2]>/<key>.pkl``.  Keys hash the full
    cell content (see :func:`cell_cache_key`), so invalidation is
    automatic on any trace or config change; delete the directory to
    clear it wholesale.

    The cache never fails a sweep (:mod:`repro.atomicfile`): writes are
    atomic, an unreadable entry is a counted miss, a put that cannot
    complete — a failed write or a failed serialization — is counted on
    ``puts_failed`` and surfaced to the progress stream as a
    ``"cache-error"`` :class:`CellEvent`, and temp files stranded by
    crashed writers are reaped on construction.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts_failed = 0
        atomicfile.reap_stale_tmp(self.root)

    def key_for(self, job: SweepJob) -> str | None:
        return cell_cache_key(job.trace, job.config)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> SimulationResult | None:
        path = self._path(key)
        result = atomicfile.read_entry(
            lambda: atomicfile.decode(path.read_bytes()), SimulationResult
        )
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> bool:
        """Write ``result`` through; ``False`` (and a ``puts_failed``
        bump) when the write could not complete."""
        if atomicfile.write_atomic(
            self._path(key),
            lambda tmp: tmp.write_bytes(atomicfile.encode(result)),
        ):
            return True
        self.puts_failed += 1
        return False


# -- execution --------------------------------------------------------------


class WorkerPool:
    """A persistent process pool plus a shared trace arena.

    Create one per sweep session (``experiments.common.execution_scope``
    does this when the ambient options ask for workers) and pass it to
    every :func:`run_cells` call: worker processes survive across
    batches — keeping their per-process materialized-trace LRUs warm —
    and each unique trace crosses the process boundary at most once,
    through the arena.  Without a pool, :func:`run_cells` builds a
    transient one per batch, which still gets the arena's zero-copy
    shipping but pays process start-up every time.

    The pool transparently replaces an executor that a worker crash has
    broken, so a failed batch does not poison subsequent ones.
    :meth:`close` shuts the executor down and removes the arena's
    files; the pool is also a context manager.
    """

    def __init__(
        self, workers: int, arena: SharedTraceArena | None = None
    ) -> None:
        self.workers = max(1, int(workers))
        self.arena = SharedTraceArena() if arena is None else arena
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, replacing one a worker crash broke."""
        if self._closed:
            raise ConfigError("WorkerPool is closed")
        if self._executor is not None and getattr(
            self._executor, "_broken", False
        ):
            self.discard_executor()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def discard_executor(self) -> None:
        """Drop the current executor (after a pool-level failure)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def prepare(
        self, trace: RunTrace | TraceHandle
    ) -> RunTrace | TraceHandle:
        """The payload a job should ship: a handle when the arena can.

        Handles already pickle in a few bytes; materialized traces are
        published to the arena (once per unique content) and replaced by
        their handle.  When the arena has turned itself off (a write
        failed) the original trace is returned and the cell falls back
        to per-cell pickling.
        """
        if isinstance(trace, RunTrace):
            handle = self.arena.publish(trace)
            if handle is not None:
                return handle
        return trace

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass
        self.arena.close()


@dataclass(slots=True)
class ExecutionOptions:
    """How sweep cells should be executed (workers, cache, progress).

    ``observe`` is an observability spec applied to every config the
    experiment helpers build (see ``SimulationConfig.observe``).
    ``pool`` is a persistent :class:`WorkerPool` reused across every
    batch executed under these options; whoever sets it owns its
    lifecycle (``experiments.common.execution_scope`` installs and
    closes one automatically when ``workers > 1``).
    """

    workers: int = 1
    cache: ResultCache | None = None
    progress: ProgressCallback | None = None
    observe: str = ""
    pool: WorkerPool | None = None

    @classmethod
    def from_env(cls) -> "ExecutionOptions":
        return cls(workers=default_workers(), cache=default_cache())


def _materialize(trace: RunTrace | TraceHandle) -> RunTrace:
    """A concrete :class:`RunTrace` for any job payload.

    Handles materialize through the process-local LRU
    (:func:`repro.sim.shm.cached_trace`), so a worker that sees the same
    trace again — the common case in a sweep — reuses the already-attached
    ``RunTrace`` along with its warm column caches.
    """
    if isinstance(trace, TraceHandle):
        return shm.cached_trace(trace.fingerprint, trace.materialize)
    return trace


def _execute(
    trace: RunTrace | TraceHandle, config: SimulationConfig
) -> tuple[SimulationResult, float]:
    """Worker entry point: simulate one cell, timing the compute."""
    started = time.perf_counter()
    result = simulate(_materialize(trace), config)
    return result, time.perf_counter() - started


def _emit(progress: ProgressCallback | None, event: CellEvent) -> None:
    if progress is not None:
        progress(event)


def _write_through(
    cache: "ResultCache | None",
    ckey: str | None,
    result: SimulationResult,
    progress: ProgressCallback | None,
    key: Any,
) -> None:
    """Cache a computed result, surfacing write failures as events."""
    if cache is not None and ckey is not None:
        if not cache.put(ckey, result):
            _emit(progress, CellEvent(key, "cache-error", 0.0))


def _run_pool(
    todo: list[tuple[SweepJob, str | None]],
    pool: WorkerPool,
    cache: ResultCache | None,
    progress: ProgressCallback | None,
    results: dict[Any, SimulationResult],
) -> list[tuple[SweepJob, str | None, str]]:
    """Run cells through the pool.

    Futures are collected ``as_completed``, so progress events and cache
    write-through happen as cells finish rather than in submission
    order.  Returns the cells that still need inline execution as
    ``(job, cache_key, "retried")`` triples: cells whose worker failed,
    whose payload could not pickle (the executor fails that cell's
    future and keeps going), or that a dead pool never finished.
    When the pool itself dies mid-batch, results workers already
    produced are kept (cache write-through included) and only the
    unfinished cells re-run inline.  An exception raised by ``progress``
    is not a pool failure: it cancels the batch's pending futures and
    propagates.
    """
    inline: list[tuple[SweepJob, str | None, str]] = []
    shippable = [(job, ckey, pool.prepare(job.trace)) for job, ckey in todo]

    def record(job: SweepJob, ckey: str | None, result, elapsed) -> None:
        results[job.key] = result
        _write_through(cache, ckey, result, progress, job.key)
        _emit(progress, CellEvent(job.key, "done", elapsed))

    futures: dict[Any, tuple[SweepJob, str | None]] = {}
    try:
        executor = pool.executor()
        for job, ckey, payload in shippable:
            future = executor.submit(_execute, payload, job.config)
            futures[future] = (job, ckey)
    except Exception:
        # The pool itself failed (fork unavailable, broken executor,
        # ...).  Cells it never took run inline; cells it took finish
        # or fail below like any other.
        pool.discard_executor()
        inline.extend(
            (job, ckey, "retried")
            for job, ckey, _ in shippable[len(futures):]
        )
    # Only executor and future failures are pool failures: an exception
    # from ``progress`` propagates here exactly as it does inline.
    try:
        for future in as_completed(futures):
            job, ckey = futures[future]
            try:
                result, elapsed = future.result()
            except Exception:
                inline.append((job, ckey, "retried"))
            else:
                record(job, ckey, result, elapsed)
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return inline


def run_cells(
    jobs: Iterable[SweepJob],
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    pool: WorkerPool | None = None,
) -> dict[Any, SimulationResult]:
    """Execute sweep cells, in parallel when asked, returning by key.

    ``workers=None`` reads ``REPRO_WORKERS`` (default 1), or takes the
    worker count of ``pool`` when one is given; ``workers<=1`` runs
    inline.  When a ``cache`` is given, cacheable cells are served from
    it and newly computed results are written through.  Every cell
    reports exactly one completion :class:`CellEvent` to ``progress``
    (plus a ``"cache-error"`` event when its write-through failed).

    ``pool`` is a persistent :class:`WorkerPool` to execute on; without
    one, a transient pool (own arena, own worker processes) is built for
    the batch and closed afterwards.  Either way, traces are published
    to the pool's arena and jobs ship
    :class:`~repro.sim.shm.TraceHandle` payloads, falling back to
    per-cell pickling when the arena cannot write its files.

    Results are identical to running :func:`simulate` serially on each
    cell in job order, whatever the worker count or shipping path; the
    returned dict is in job order even though pooled cells complete out
    of order.
    """
    jobs = list(jobs)
    seen: set[Any] = set()
    for job in jobs:
        if job.key in seen:
            raise ConfigError(f"duplicate sweep cell key {job.key!r}")
        seen.add(job.key)
    if workers is None:
        workers = (
            pool.workers if pool is not None and not pool.closed
            else default_workers()
        )

    results: dict[Any, SimulationResult] = {}
    todo: list[tuple[SweepJob, str | None]] = []
    for job in jobs:
        ckey = cache.key_for(job) if cache is not None else None
        if ckey is not None:
            hit = cache.get(ckey)
            if hit is not None:
                results[job.key] = hit
                _emit(progress, CellEvent(job.key, "cached", 0.0))
                continue
        todo.append((job, ckey))

    remaining: list[tuple[SweepJob, str | None, str]]
    if workers > 1 and len(todo) > 1:
        owned: WorkerPool | None = None
        if pool is None or pool.closed:
            pool = owned = WorkerPool(workers)
        try:
            remaining = _run_pool(todo, pool, cache, progress, results)
        finally:
            if owned is not None:
                owned.close()
    else:
        remaining = [(job, ckey, "done") for job, ckey in todo]
    for job, ckey, status in remaining:
        result, elapsed = _execute(job.trace, job.config)
        results[job.key] = result
        _write_through(cache, ckey, result, progress, job.key)
        _emit(progress, CellEvent(job.key, status, elapsed))
    return {job.key: results[job.key] for job in jobs}
