"""Shared experiment plumbing: cached traces and cached simulation runs.

Several figures reuse the same runs (Figures 4, 5, 6 all view the
Modula-3 1/2-mem sweep); caching them keeps the whole experiment suite
fast and the benches honest (each bench still *computes* its figure; it
just shares substrate runs).  A run is named by ``app`` plus a cell spec
-- ``memory_fraction`` and any :class:`~repro.sim.config.SimulationConfig`
fields -- built by the one rule every cell goes through,
:func:`repro.sim.sweep.cell_config`, and keyed by its cell's content
key, the same key the on-disk result stores and the sweep service use.

The in-process run cache is seedable: :func:`warm_runs` fans missing
cells out through :func:`repro.sim.parallel.run_cells`, so grid figures
(3 and 9) compute their cells in parallel when the ambient
:class:`~repro.sim.parallel.ExecutionOptions` (set by the CLI's
``--workers`` flag or ``REPRO_WORKERS``) ask for workers, and reuse an
on-disk result cache when one is configured.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Iterable, Iterator

from repro.errors import ConfigError
from repro.sim.parallel import (
    ExecutionOptions,
    SweepJob,
    WorkerPool,
    cell_cache_key,
    run_cells,
)
from repro.sim.results import SimulationResult
from repro.sim.sweep import MEMORY_FRACTIONS, SUBPAGE_SIZES, cell_config
from repro.trace.compress import RunTrace
from repro.trace.synth.apps import build_app_trace

#: The trace seed used by all experiments (results are deterministic).
TRACE_SEED = 0

#: In-process run cache, keyed by each cell's content key
#: (:func:`repro.sim.parallel.cell_cache_key`, the key the on-disk
#: result stores use).
_RUN_CACHE: dict[str, SimulationResult] = {}

#: Ambient execution options (lazily initialized from the environment).
_OPTIONS: ExecutionOptions | None = None


def execution_options() -> ExecutionOptions:
    """The ambient options experiment runs execute under."""
    global _OPTIONS
    if _OPTIONS is None:
        _OPTIONS = ExecutionOptions.from_env()
    return _OPTIONS


def set_execution_options(options: ExecutionOptions) -> None:
    global _OPTIONS
    _OPTIONS = options


@contextmanager
def execution_scope(options: ExecutionOptions) -> Iterator[ExecutionOptions]:
    """Temporarily install ``options`` as the ambient execution options.

    When the options ask for workers but carry no
    :class:`~repro.sim.parallel.WorkerPool`, the scope creates one and
    owns it: every ``run_cells`` batch inside the scope reuses the same
    worker processes and trace arena, and the pool (and its arena's
    trace files) is torn down on scope exit.  A pool installed by the
    caller — e.g. the CLI, which keeps one pool alive across all the
    experiments of an invocation — is left untouched.
    """
    global _OPTIONS
    previous = _OPTIONS
    _OPTIONS = options
    owned: WorkerPool | None = None
    if options.pool is None and options.workers > 1:
        options.pool = owned = WorkerPool(options.workers)
    try:
        yield options
    finally:
        _OPTIONS = previous
        if owned is not None:
            if options.pool is owned:
                options.pool = None
            owned.close()


@lru_cache(maxsize=16)
def get_trace(app: str, seed: int = TRACE_SEED) -> RunTrace:
    """The named application's trace (built once per process)."""
    return build_app_trace(app, seed=seed)


def _cell(spec: dict[str, Any]) -> SweepJob:
    """One run spec as a sweep cell keyed by its content key.

    A run spec is ``app`` plus a :func:`~repro.sim.sweep.cell_config`
    spec.  The ambient observe spec joins the config unless the spec
    names its own, so a run with observability payloads never shadows,
    or is shadowed by, a plain run of the same spec.
    """
    fields = {"observe": execution_options().observe, **spec}
    trace = get_trace(fields.pop("app"))
    config = cell_config(trace, fields)
    key = cell_cache_key(trace, config)
    if key is None:
        raise ConfigError(
            "run specs must be content-addressable (no model instances)"
        )
    return SweepJob(key=key, trace=trace, config=config)


def warm_runs(specs: Iterable[dict[str, Any]]) -> list[SimulationResult]:
    """Every spec's run, in spec order, fanning missing cells out.

    Each spec is a dict of :func:`run_cached` keyword arguments (``app``
    and ``memory_fraction`` required).  Missing cells execute through
    :func:`repro.sim.parallel.run_cells` under the ambient
    :func:`execution_options` (worker count, on-disk cache, progress
    callback), so a grid figure computes all its cells in one parallel
    batch and reads its results from the returned list.
    """
    cells = [_cell(spec) for spec in specs]
    jobs = {job.key: job for job in cells if job.key not in _RUN_CACHE}
    if jobs:
        options = execution_options()
        _RUN_CACHE.update(run_cells(
            jobs.values(),
            workers=options.workers,
            cache=options.cache,
            progress=options.progress,
            pool=options.pool,
        ))
    return [_RUN_CACHE[job.key] for job in cells]


def clear_run_cache() -> None:
    """Drop the in-process run cache (tests and memory-pressure relief)."""
    _RUN_CACHE.clear()


def harvest_observed_runs(
    seen: set[int] | None = None,
) -> list[SimulationResult]:
    """Runs in the cache carrying observability payloads, in run order.

    ``seen`` (ids of already-harvested results, updated in place) lets
    the CLI collect per-experiment deltas when several experiments run
    in one invocation.
    """
    harvested: list[SimulationResult] = []
    for result in _RUN_CACHE.values():
        if result.metrics is None and result.trace_events is None:
            continue
        if seen is not None:
            if id(result) in seen:
                continue
            seen.add(id(result))
        harvested.append(result)
    return harvested


def run_cached(
    app: str, memory_fraction: float, **fields: Any
) -> SimulationResult:
    """Run (or fetch) one simulation: ``app`` at ``memory_fraction`` of
    its footprint, with any other :class:`SimulationConfig` fields."""
    return warm_runs(
        [{"app": app, "memory_fraction": memory_fraction, **fields}]
    )[0]


def fullpage_run(
    app: str, memory_fraction: float, backing: str = "remote", **fields: Any
) -> SimulationResult:
    """The 8K fullpage baseline for an app/memory configuration, with
    any other :class:`SimulationConfig` fields."""
    return run_cached(
        app,
        memory_fraction,
        scheme="fullpage",
        subpage_bytes=8192,
        backing=backing,
        **fields,
    )


def disk_run(app: str, memory_fraction: float) -> SimulationResult:
    """The disk-backed (no network memory) baseline."""
    return fullpage_run(app, memory_fraction, backing="disk")

