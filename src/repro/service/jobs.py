"""Sweep specs and the asyncio job manager behind the HTTP service.

A :class:`SweepSpec` is the JSON payload a client POSTs: which app
trace, which base config fields, and which grid (the Figure 3
subpage x memory grid, or a memory-size sweep).  It builds *exactly*
the jobs the in-process sweep helpers build — both call
:func:`repro.sim.sweep.subpage_sweep_jobs` /
:func:`~repro.sim.sweep.memory_sweep_jobs`, whose cells go through the
one spec builder, :func:`repro.sim.sweep.cell_config` — so a sweep
served over HTTP is byte-identical to one run in process, and its cells
carry the same content keys into the result store as the experiments'.
A bad ``base`` fails at submit (:func:`repro.sim.sweep.check_fields`).

:class:`JobManager` owns the execution substrate: one persistent
:class:`~repro.sim.parallel.WorkerPool` (when workers are configured),
one result store, and a FIFO of submitted jobs.  Each job runs
``run_cells`` in a thread-pool executor (the sweep engine is
synchronous); per-cell :class:`~repro.sim.parallel.CellEvent` progress
is republished onto the event loop, where any number of SSE
subscribers stream it.  Because the store is content-addressed,
**incremental recompute falls out of keying**: resubmitting a spec
after a config edit re-runs only the cells whose content key changed —
everything else is served from the store as ``"cached"`` events.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.sim.parallel import CellEvent, SweepJob, WorkerPool, run_cells
from repro.sim.sweep import (
    MEMORY_FRACTIONS,
    SPEC_FIELDS,
    SUBPAGE_SIZES,
    SweepResult,
    check_fields,
    memory_sweep_jobs,
    subpage_sweep_jobs,
)
from repro.trace.compress import RunTrace
from repro.units import FULL_PAGE_BYTES

#: Statuses that mean "the cell was computed this run" (vs served from
#: the store).  ``cache-error`` rides the same stream but is an extra
#: event, not a completion.
COMPUTED_STATUSES = frozenset({"done", "retried"})

#: Config fields a spec's ``base`` may set: a cell spec's fields but the
#: live latency model, which JSON cannot carry and content keys cannot
#: hash.
SPEC_BASE_FIELDS = SPEC_FIELDS - {"latency_model"}

_SPEC_KEYS = frozenset({
    "kind", "app", "seed", "scale", "base", "subpage_sizes",
    "memory_fractions", "include_baselines", "batch",
})


def _is_int(value: Any) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A validated sweep request (the service's POST payload)."""

    app: str
    kind: str = "subpage"
    seed: int = 0
    scale: float | None = None
    base: dict[str, Any] = field(default_factory=dict)
    subpage_sizes: tuple[int, ...] = SUBPAGE_SIZES
    memory_fractions: tuple[tuple[str, float], ...] = tuple(
        MEMORY_FRACTIONS.items()
    )
    include_baselines: bool = True

    @classmethod
    def from_dict(cls, payload: Any) -> "SweepSpec":
        """Parse and validate a JSON payload, raising :class:`ConfigError`
        (the service maps it to HTTP 400) on anything malformed."""
        if not isinstance(payload, dict):
            raise ConfigError("sweep spec must be a JSON object")
        unknown = set(payload) - _SPEC_KEYS
        if unknown:
            raise ConfigError(
                f"unknown sweep spec fields: {sorted(unknown)}; "
                f"known: {sorted(_SPEC_KEYS)}"
            )
        app = payload.get("app")
        if not isinstance(app, str) or not app:
            raise ConfigError("sweep spec needs an 'app' (trace name)")
        kind = payload.get("kind", "subpage")
        if kind not in ("subpage", "memory"):
            raise ConfigError(
                f"unknown sweep kind {kind!r}; known: subpage, memory"
            )
        base = payload.get("base", {})
        if not isinstance(base, dict):
            raise ConfigError("'base' must be an object of config fields")
        bad = set(base) - SPEC_BASE_FIELDS
        if bad:
            raise ConfigError(
                f"unknown config fields in 'base': {sorted(bad)}"
            )
        sizes = payload.get("subpage_sizes", SUBPAGE_SIZES)
        if (not isinstance(sizes, (list, tuple)) or not sizes
                or not all(_is_int(s) and s > 0 for s in sizes)):
            raise ConfigError(
                "'subpage_sizes' must be a non-empty list of positive ints"
            )
        fractions = payload.get("memory_fractions", MEMORY_FRACTIONS)
        if (not isinstance(fractions, dict) or not fractions
                or not all(
                    isinstance(k, str) and _is_number(v) and 0 < v
                    for k, v in fractions.items()
                )):
            raise ConfigError(
                "'memory_fractions' must map labels to positive fractions"
            )
        seed = payload.get("seed", 0)
        if not _is_int(seed):
            raise ConfigError("'seed' must be an integer")
        scale = payload.get("scale")
        if scale is not None and not (_is_number(scale) and scale > 0):
            raise ConfigError("'scale' must be a positive number")
        include_baselines = payload.get("include_baselines", True)
        if not isinstance(include_baselines, bool):
            raise ConfigError("'include_baselines' must be a boolean")
        # Accepted for compatibility with older clients and ignored:
        # there is only one way to run a cell.
        if not isinstance(payload.get("batch", False), bool):
            raise ConfigError("'batch' must be a boolean")
        return cls(
            app=app,
            kind=kind,
            seed=seed,
            scale=float(scale) if scale is not None else None,
            base=dict(base),
            subpage_sizes=tuple(sizes),
            memory_fractions=tuple(fractions.items()),
            include_baselines=include_baselines,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "app": self.app,
            "seed": self.seed,
            "scale": self.scale,
            "base": dict(self.base),
            "subpage_sizes": list(self.subpage_sizes),
            "memory_fractions": dict(self.memory_fractions),
            "include_baselines": self.include_baselines,
        }

    # -- job construction ---------------------------------------------------

    def build_trace(self) -> RunTrace:
        from repro.trace.synth.apps import build_app_trace

        return build_app_trace(self.app, seed=self.seed, scale=self.scale)

    def build_jobs(self, trace: RunTrace) -> list[SweepJob]:
        fractions = dict(self.memory_fractions)
        if self.kind == "memory":
            return memory_sweep_jobs(trace, self.base, fractions)
        return subpage_sweep_jobs(
            trace, self.base, self.subpage_sizes, fractions,
            self.include_baselines,
        )


def _event_payload(event: CellEvent) -> dict[str, Any]:
    key = event.key
    if isinstance(key, tuple):
        key = list(key)
    return {
        "type": "cell",
        "key": key,
        "status": event.status,
        "elapsed_s": event.elapsed_s,
    }


@dataclass(slots=True)
class Job:
    """One submitted sweep: spec, lifecycle, event history, results."""

    id: str
    spec: SweepSpec
    state: str = "queued"  # queued -> running -> done | failed
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    cells_total: int = 0
    #: Completion-event counts by status (plus ``cache-error`` extras).
    counts: dict[str, int] = field(default_factory=dict)
    #: Full event history, replayed to late SSE subscribers.
    events: list[dict[str, Any]] = field(default_factory=list)
    sweep: SweepResult | None = None
    results_by_key: dict[Any, Any] = field(default_factory=dict)
    subscribers: list[asyncio.Queue] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def cells_cached(self) -> int:
        return self.counts.get("cached", 0)

    def cells_computed(self) -> int:
        return sum(
            count for status, count in self.counts.items()
            if status in COMPUTED_STATUSES
        )

    def summary(self) -> dict[str, Any]:
        elapsed = None
        if self.started_at is not None:
            elapsed = (self.finished_at or time.time()) - self.started_at
        return {
            "id": self.id,
            "state": self.state,
            "error": self.error,
            "spec": self.spec.as_dict(),
            "cells_total": self.cells_total,
            "cells_computed": self.cells_computed(),
            "cells_cached": self.cells_cached(),
            "cache_errors": self.counts.get("cache-error", 0),
            "counts": dict(self.counts),
            "elapsed_s": elapsed,
        }

    def cell_totals(self) -> list[dict[str, Any]]:
        """Per-cell headline numbers, in job order."""
        out = []
        for key, result in self.results_by_key.items():
            out.append({
                "key": list(key) if isinstance(key, tuple) else key,
                "total_ms": result.total_ms,
                "page_faults": result.page_faults,
                "scheme": result.scheme_label,
            })
        return out


class JobManager:
    """Owns the worker pool, the store, and every submitted job.

    Jobs execute one at a time, FIFO (the pool's workers parallelize
    *within* a sweep; cross-job serialization keeps the store's writer
    single and the progress streams untangled), on a thread-pool
    executor so the event loop stays responsive while a sweep runs.
    """

    def __init__(
        self,
        store: Any | None = None,
        workers: int = 1,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.pool: WorkerPool | None = (
            WorkerPool(self.workers) if self.workers > 1 else None
        )
        self.jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._next_id = 1
        self._run_lock: asyncio.Lock | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.store is not None and hasattr(self.store, "close"):
            self.store.close()

    # -- submission / lookup ------------------------------------------------

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ConfigError(f"no such job {job_id!r}") from None

    def list_jobs(self) -> list[dict[str, Any]]:
        return [self.jobs[job_id].summary() for job_id in self._order]

    def submit(self, payload: Any) -> Job:
        """Validate a spec, register a job, and schedule it to run."""
        if self._closed:
            raise ConfigError("service is shutting down")
        spec = SweepSpec.from_dict(payload)
        # Fail a bad base and malformed app names at submit time (HTTP
        # 400), not inside the worker thread.
        check_fields(spec.base)
        # ``ingest:<path>`` names resolve to trace files instead of the
        # synthetic registry: validate that the file exists without
        # paying for conversion here.
        from repro.trace.synth.apps import INGEST_PREFIX, get_app_model

        if spec.app.startswith(INGEST_PREFIX):
            from pathlib import Path

            ingest_path = spec.app[len(INGEST_PREFIX):]
            if not Path(ingest_path).exists():
                raise ConfigError(
                    f"ingested trace file not found: {ingest_path!r}"
                )
        else:
            get_app_model(spec.app)
            # Every synthetic app builds full (8 KB) pages; an ingested
            # trace's page size is only known once its header is read.
            page_bytes = spec.base.get("page_bytes", FULL_PAGE_BYTES)
            if page_bytes != FULL_PAGE_BYTES:
                raise ConfigError(
                    f"bad config fields: page_bytes {page_bytes} != the "
                    f"synthetic trace's {FULL_PAGE_BYTES}"
                )
        job = Job(id=f"job-{self._next_id:04d}", spec=spec)
        self._next_id += 1
        self.jobs[job.id] = job
        self._order.append(job.id)
        self._publish(job, {"type": "state", "state": "queued"})
        asyncio.get_running_loop().create_task(self._run(job))
        return job

    # -- event fan-out ------------------------------------------------------

    def _publish(self, job: Job, event: dict[str, Any]) -> None:
        """Record an event and push it to live subscribers.

        Always called on the event-loop thread (worker threads get
        here via ``loop.call_soon_threadsafe``), so history and queues
        never race.
        """
        event = {"job": job.id, **event}
        job.events.append(event)
        if event["type"] == "cell":
            status = event["status"]
            job.counts[status] = job.counts.get(status, 0) + 1
        for queue in job.subscribers:
            queue.put_nowait(event)

    def subscribe(self, job: Job) -> tuple[list[dict], asyncio.Queue]:
        """History snapshot + a live queue for everything after it.

        Must be called on the event loop (no awaits between snapshot
        and registration, so no event is dropped or duplicated).
        """
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        return list(job.events), queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        try:
            job.subscribers.remove(queue)
        except ValueError:
            pass

    # -- execution ----------------------------------------------------------

    async def _run(self, job: Job) -> None:
        if self._run_lock is None:
            self._run_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        async with self._run_lock:
            job.state = "running"
            job.started_at = time.time()
            self._publish(job, {"type": "state", "state": "running"})
            try:
                await loop.run_in_executor(
                    None, self._execute, job, loop
                )
            except Exception as exc:  # the sweep itself failed
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
                self._publish(
                    job, {"type": "failed", "error": job.error}
                )
            else:
                job.state = "done"
                job.finished_at = time.time()
                self._publish(
                    job, {"type": "done", "summary": job.summary()}
                )

    def _execute(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        """Worker-thread body: build the grid and run it."""
        trace = job.spec.build_trace()
        jobs = job.spec.build_jobs(trace)
        job.cells_total = len(jobs)
        loop.call_soon_threadsafe(
            self._publish, job,
            {"type": "plan", "cells_total": len(jobs)},
        )

        def progress(event: CellEvent) -> None:
            loop.call_soon_threadsafe(
                self._publish, job, _event_payload(event)
            )

        results = run_cells(
            jobs,
            workers=self.workers,
            cache=self.store,
            progress=progress,
            pool=self.pool,
        )
        job.results_by_key = results
        if job.spec.kind == "subpage":
            job.sweep = SweepResult.of(results)
