"""Shared experiment plumbing: cached traces and cached simulation runs.

Several figures reuse the same runs (Figures 4, 5, 6 all view the
Modula-3 1/2-mem sweep); caching keyed on the run parameters keeps the
whole experiment suite fast and the benches honest (each bench still
*computes* its figure; it just shares substrate runs).

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

from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.parallel import (
    ExecutionOptions,
    SweepJob,
    WorkerPool,
    run_cells,
)
from repro.sim.results import SimulationResult
from repro.trace.compress import RunTrace
from repro.trace.synth.apps import build_app_trace

#: The paper's three memory configurations (Section 4.1).
MEMORY_FRACTIONS: dict[str, float] = {
    "full-mem": 1.0,
    "1/2-mem": 0.5,
    "1/4-mem": 0.25,
}

#: Subpage sizes evaluated throughout the paper, largest first (Figure 3
#: bar order).
SUBPAGE_SIZES: tuple[int, ...] = (4096, 2048, 1024, 512, 256)

#: The trace seed used by all experiments (results are deterministic).
TRACE_SEED = 0

#: Defaults for every run parameter, in cache-key order.
_RUN_DEFAULTS: dict[str, Any] = {
    "scheme": "eager",
    "subpage_bytes": 1024,
    "backing": "remote",
    "pipeline_count": 2,
    "segment_subpages": 1,
    "interrupt_ms": 0.0,
    "double_initial": False,
    "congestion": True,
    "replacement": "lru",
    "protection": "tlb",
    "tlb_entries": 0,
}

#: In-process result cache, keyed by normalized run spec.
_RUN_CACHE: dict[tuple, SimulationResult] = {}

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


def _spec_key(app: str, memory_fraction: float, **kwargs: Any) -> tuple:
    merged = {**_RUN_DEFAULTS, **kwargs}
    unknown = set(merged) - set(_RUN_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown run parameters: {sorted(unknown)}")
    # The ambient observe spec is part of the key: results computed with
    # observability payloads must not shadow (or be shadowed by) plain
    # runs of the same spec.
    return (app, memory_fraction, execution_options().observe) + tuple(
        merged[name] for name in _RUN_DEFAULTS
    )


def _spec_config(
    trace: RunTrace, memory_fraction: float, **kwargs: Any
) -> SimulationConfig:
    merged = {**_RUN_DEFAULTS, **kwargs}
    scheme_kwargs = {}
    if merged["scheme"] == "pipelined":
        scheme_kwargs = {
            "pipeline_count": merged["pipeline_count"],
            "segment_subpages": merged["segment_subpages"],
            "interrupt_ms": merged["interrupt_ms"],
            "double_initial": merged["double_initial"],
        }
    return SimulationConfig(
        memory_pages=memory_pages_for(trace, memory_fraction),
        scheme=merged["scheme"],
        scheme_kwargs=scheme_kwargs,
        subpage_bytes=merged["subpage_bytes"],
        backing=merged["backing"],
        congestion=merged["congestion"],
        replacement=merged["replacement"],
        protection=merged["protection"],
        tlb_entries=merged["tlb_entries"],
        observe=execution_options().observe,
    )


def warm_runs(
    specs: Iterable[dict[str, Any]],
    workers: int | None = None,
    progress: Any = None,
) -> None:
    """Ensure every spec is in the run cache, fanning missing cells out.

    Each spec is a dict of :func:`run_cached` keyword arguments (``app``
    and ``memory_fraction`` required).  Missing cells execute through
    :func:`repro.sim.parallel.run_cells` under the ambient
    :func:`execution_options` (worker count, on-disk cache, progress
    callback), so a grid figure can compute all its cells in one
    parallel batch before reading them back serially.
    """
    options = execution_options()
    if workers is None:
        workers = options.workers
    if progress is None:
        progress = options.progress
    jobs: list[SweepJob] = []
    queued: set[tuple] = set()
    for spec in specs:
        spec = dict(spec)
        app = spec.pop("app")
        memory_fraction = spec.pop("memory_fraction")
        key = _spec_key(app, memory_fraction, **spec)
        if key in _RUN_CACHE or key in queued:
            continue
        queued.add(key)
        trace = get_trace(app)
        jobs.append(SweepJob(
            key=key,
            trace=trace,
            config=_spec_config(trace, memory_fraction, **spec),
        ))
    if jobs:
        _RUN_CACHE.update(run_cells(
            jobs,
            workers=workers,
            cache=options.cache,
            progress=progress,
            pool=options.pool,
        ))


def clear_run_cache() -> None:
    """Drop the in-process run cache (tests and memory-pressure relief)."""
    _RUN_CACHE.clear()


def harvest_observed_runs(
    seen: set[int] | None = None,
) -> list[SimulationResult]:
    """Runs in the cache carrying observability payloads, in key order.

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
    app: str,
    memory_fraction: float,
    scheme: str = "eager",
    subpage_bytes: int = 1024,
    backing: str = "remote",
    pipeline_count: int = 2,
    segment_subpages: int = 1,
    interrupt_ms: float = 0.0,
    double_initial: bool = False,
    congestion: bool = True,
    replacement: str = "lru",
    protection: str = "tlb",
    tlb_entries: int = 0,
) -> SimulationResult:
    """Run (or fetch) one simulation with the standard configuration.

    Scheme keyword arguments are flattened into the signature so the
    cache key stays stable and hashable.
    """
    spec = {
        "scheme": scheme,
        "subpage_bytes": subpage_bytes,
        "backing": backing,
        "pipeline_count": pipeline_count,
        "segment_subpages": segment_subpages,
        "interrupt_ms": interrupt_ms,
        "double_initial": double_initial,
        "congestion": congestion,
        "replacement": replacement,
        "protection": protection,
        "tlb_entries": tlb_entries,
    }
    key = _spec_key(app, memory_fraction, **spec)
    result = _RUN_CACHE.get(key)
    if result is None:
        warm_runs([{"app": app, "memory_fraction": memory_fraction, **spec}])
        result = _RUN_CACHE[key]
    return result


def fullpage_run(
    app: str, memory_fraction: float, backing: str = "remote"
) -> SimulationResult:
    """The 8K fullpage baseline for an app/memory configuration."""
    return run_cached(
        app,
        memory_fraction,
        scheme="fullpage",
        subpage_bytes=8192,
        backing=backing,
    )


def disk_run(app: str, memory_fraction: float) -> SimulationResult:
    """The disk-backed (no network memory) baseline."""
    return fullpage_run(app, memory_fraction, backing="disk")


def memory_label_fraction(label: str) -> float:
    return MEMORY_FRACTIONS[label]
