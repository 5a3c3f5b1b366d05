"""Parameter sweeps: the loops behind the paper's bar charts.

Figure 3 sweeps subpage size x memory size for one application; Figure 9
sweeps applications x schemes at fixed subpage/memory.  These helpers run
those grids and return results keyed the way the figures are labelled.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.parallel import (
    ProgressCallback,
    ResultCache,
    SweepJob,
    WorkerPool,
    run_cells,
)
from repro.sim.results import SimulationResult
from repro.trace.compress import RunTrace


@dataclass(slots=True)
class SweepResult:
    """Results of a sweep, keyed by (row_label, column_label)."""

    rows: list[str] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    results: dict[tuple[str, str], SimulationResult] = field(
        default_factory=dict
    )

    def add(
        self, row: str, column: str, result: SimulationResult
    ) -> None:
        if (row, column) in self.results:
            raise ConfigError(
                f"sweep already has cell ({row!r}, {column!r}); "
                "duplicate grid labels would silently overwrite results"
            )
        if row not in self.rows:
            self.rows.append(row)
        if column not in self.columns:
            self.columns.append(column)
        self.results[(row, column)] = result

    def get(self, row: str, column: str) -> SimulationResult:
        try:
            return self.results[(row, column)]
        except KeyError:
            raise ConfigError(
                f"sweep has no cell ({row!r}, {column!r})"
            ) from None

    def totals_ms(self) -> dict[tuple[str, str], float]:
        return {key: r.total_ms for key, r in self.results.items()}

    def to_csv(self) -> str:
        """The grid as CSV (``memory,config,total_ms``), rows x columns.

        The exact format Figure 3's ``--csv`` export uses, and what the
        sweep service serves over HTTP — one renderer, so "the service
        CSV is byte-identical to the in-process sweep" is checkable
        with ``==``.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["memory", "config", "total_ms"])
        writer.writerows(
            (row, column, self.results[(row, column)].total_ms)
            for row in self.rows
            for column in self.columns
            if (row, column) in self.results
        )
        return buffer.getvalue()


def subpage_sweep_jobs(
    trace: RunTrace,
    base: SimulationConfig,
    subpage_sizes: list[int],
    memory_fractions: dict[str, float],
    include_baselines: bool = True,
) -> list[SweepJob]:
    """The Figure 3 grid's cells, keyed ``(row_label, column_label)``.

    Shared by :func:`run_subpage_sweep` and the sweep service
    (:mod:`repro.service`), so a spec submitted over HTTP builds
    *exactly* the jobs an in-process sweep would — same configs, same
    content keys, same incremental-recompute behaviour.
    """
    jobs: list[SweepJob] = []
    for row_label, fraction in memory_fractions.items():
        memory = memory_pages_for(trace, fraction)
        if include_baselines:
            # Baselines replace the scheme, so the base's scheme_kwargs
            # must not ride along (fullpage takes no arguments).
            disk_cfg = base.with_overrides(
                memory_pages=memory,
                backing="disk",
                scheme="fullpage",
                scheme_kwargs={},
                subpage_bytes=base.page_bytes,
            )
            jobs.append(SweepJob(
                key=(row_label, f"disk_{base.page_bytes}"),
                trace=trace,
                config=disk_cfg,
            ))
            full_cfg = base.with_overrides(
                memory_pages=memory,
                backing="remote",
                scheme="fullpage",
                scheme_kwargs={},
                subpage_bytes=base.page_bytes,
            )
            jobs.append(SweepJob(
                key=(row_label, f"p_{base.page_bytes}"),
                trace=trace,
                config=full_cfg,
            ))
        for size in sorted(subpage_sizes, reverse=True):
            cfg = base.with_overrides(
                memory_pages=memory,
                backing=base.backing if base.backing != "disk" else "remote",
                subpage_bytes=size,
            )
            jobs.append(SweepJob(
                key=(row_label, cfg.scheme_label()),
                trace=trace,
                config=cfg,
            ))
    return jobs


def run_subpage_sweep(
    trace: RunTrace,
    base: SimulationConfig,
    subpage_sizes: list[int],
    memory_fractions: dict[str, float],
    include_baselines: bool = True,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    pool: WorkerPool | None = None,
) -> SweepResult:
    """The Figure 3 grid: rows = memory configs, columns = schemes/sizes.

    Columns are, in the paper's order: ``disk_8192`` (fullpage faults from
    disk), ``p_8192`` (fullpage from global memory), then ``sp_<size>``
    (eager fullpage fetch) for each requested subpage size, largest first.

    Cells route through :func:`repro.sim.parallel.run_cells`:
    ``workers`` fans them out over processes (``None`` reads
    ``REPRO_WORKERS``), ``cache`` skips cells already computed,
    ``progress`` receives per-cell events, and ``pool`` reuses a
    persistent :class:`~repro.sim.parallel.WorkerPool`.  Results are
    identical at any worker count.
    """
    jobs = subpage_sweep_jobs(
        trace, base, subpage_sizes, memory_fractions, include_baselines
    )
    results = run_cells(
        jobs, workers=workers, cache=cache, progress=progress, pool=pool
    )
    sweep = SweepResult()
    for job in jobs:
        row_label, column = job.key
        sweep.add(row_label, column, results[job.key])
    return sweep


def memory_sweep_jobs(
    trace: RunTrace,
    base: SimulationConfig,
    memory_fractions: dict[str, float],
) -> list[SweepJob]:
    """One configuration across several memory sizes, keyed by label."""
    return [
        SweepJob(
            key=label,
            trace=trace,
            config=base.with_overrides(
                memory_pages=memory_pages_for(trace, fraction)
            ),
        )
        for label, fraction in memory_fractions.items()
    ]


def run_memory_sweep(
    trace: RunTrace,
    base: SimulationConfig,
    memory_fractions: dict[str, float],
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    pool: WorkerPool | None = None,
) -> dict[str, SimulationResult]:
    """One configuration across several memory sizes."""
    jobs = memory_sweep_jobs(trace, base, memory_fractions)
    return run_cells(
        jobs, workers=workers, cache=cache, progress=progress, pool=pool
    )
