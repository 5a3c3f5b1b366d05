"""Cell specs and parameter sweeps: the loops behind the paper's bar charts.

A cell is named by a *spec*: ``memory_fraction`` plus any
:class:`~repro.sim.config.SimulationConfig` fields.  :func:`cell_config`
builds every cell's config -- the sweeps', the experiments' run cache's
(:mod:`repro.experiments.common`) and the sweep service's -- so a cell
has one content key whoever computes it.  Figure 3 sweeps subpage size x
memory size for one application; :func:`subpage_grid` lists its cells.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import ConfigError, UnknownSchemeError
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
from repro.units import FULL_PAGE_BYTES

#: The paper's three memory configurations (Section 4.1).
MEMORY_FRACTIONS: dict[str, float] = {
    "full-mem": 1.0,
    "1/2-mem": 0.5,
    "1/4-mem": 0.25,
}

#: Subpage sizes evaluated throughout the paper, largest first (Figure 3
#: bar order).
SUBPAGE_SIZES: tuple[int, ...] = (4096, 2048, 1024, 512, 256)

#: The :class:`SimulationConfig` fields a spec may name: every field but
#: ``memory_pages``, which the spec's ``memory_fraction`` sets per trace.
SPEC_FIELDS: frozenset[str] = frozenset(
    f.name for f in dataclasses.fields(SimulationConfig)
) - {"memory_pages"}


def cell_config(
    trace: RunTrace, spec: Mapping[str, Any]
) -> SimulationConfig:
    """The one spec -> config rule:
    ``SimulationConfig(memory_pages=memory_pages_for(trace, fraction),
    **fields)``.  An unknown field raises ``TypeError``."""
    fields = dict(spec)
    memory = memory_pages_for(trace, fields.pop("memory_fraction"))
    return SimulationConfig(memory_pages=memory, **fields)


def check_fields(fields: Mapping[str, Any]) -> None:
    """Run every config check on a spec's fields but memory's, which
    the fraction sets; a failure raises :class:`ConfigError` naming the
    field."""
    unknown = set(fields) - SPEC_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        config = SimulationConfig(memory_pages=1, **fields)
        config.validate()
        config.build_scheme()
    except (UnknownSchemeError, TypeError) as exc:
        raise ConfigError(f"bad config fields {fields}: {exc}") from None


@dataclass(slots=True)
class SweepResult:
    """Results of a sweep, keyed by (row_label, column_label)."""

    rows: list[str] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    results: dict[tuple[str, str], SimulationResult] = field(
        default_factory=dict
    )

    @classmethod
    def of(
        cls, results: Mapping[tuple[str, str], SimulationResult]
    ) -> SweepResult:
        """The grid of ``(row, column)``-keyed results, in their order."""
        sweep = cls()
        for (row, column), result in results.items():
            sweep.add(row, column, result)
        return sweep

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


def subpage_grid(
    base: Mapping[str, Any],
    subpage_sizes: Iterable[int],
    memory_fractions: Mapping[str, float],
    include_baselines: bool = True,
) -> list[tuple[tuple[str, str], dict[str, Any]]]:
    """The Figure 3 grid's cells, keyed ``(row_label, column_label)``.

    Per memory row, in the paper's bar order: ``disk_8192`` (fullpage
    faults from disk) and ``p_8192`` (fullpage from global memory), then
    the base's scheme at each subpage size, largest first, labelled the
    scheme's way (``sp_<size>`` for eager fullpage fetch).  The only
    list of these cells: the sweeps, the service and Figure 3 all read
    it.
    """
    page_bytes = base.get("page_bytes", FULL_PAGE_BYTES)
    columns = []
    if include_baselines:
        # Baselines replace the scheme, so the base's scheme_kwargs
        # must not ride along (fullpage takes no arguments).
        fullpage = dict(base, scheme="fullpage", subpage_bytes=page_bytes)
        fullpage.pop("scheme_kwargs", None)
        columns += [
            {**fullpage, "backing": "disk"},
            {**fullpage, "backing": "remote"},
        ]
    for size in sorted(subpage_sizes, reverse=True):
        fields = {**base, "subpage_bytes": size}
        if fields.get("backing") == "disk":
            fields["backing"] = "remote"
        columns.append(fields)
    # A column's label does not depend on memory.
    labelled = [
        (SimulationConfig(memory_pages=1, **fields).scheme_label(), fields)
        for fields in columns
    ]
    return [
        ((row, label), {"memory_fraction": fraction, **fields})
        for row, fraction in memory_fractions.items()
        for label, fields in labelled
    ]


def _jobs(trace: RunTrace, cells: Iterable[tuple]) -> list[SweepJob]:
    return [
        SweepJob(key=key, trace=trace, config=cell_config(trace, spec))
        for key, spec in cells
    ]


def subpage_sweep_jobs(
    trace: RunTrace,
    base: Mapping[str, Any],
    subpage_sizes: Iterable[int],
    memory_fractions: Mapping[str, float],
    include_baselines: bool = True,
) -> list[SweepJob]:
    """:func:`subpage_grid`'s cells as jobs on ``trace``.

    Shared by :func:`run_subpage_sweep` and the sweep service
    (:mod:`repro.service`), so a spec submitted over HTTP builds
    *exactly* the jobs an in-process sweep would — same configs, same
    content keys, same incremental-recompute behaviour.
    """
    return _jobs(trace, subpage_grid(
        base, subpage_sizes, memory_fractions, include_baselines
    ))


def run_subpage_sweep(
    trace: RunTrace,
    base: Mapping[str, Any],
    subpage_sizes: Iterable[int],
    memory_fractions: Mapping[str, float],
    include_baselines: bool = True,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    pool: WorkerPool | None = None,
) -> SweepResult:
    """The Figure 3 grid: rows = memory configs, columns = schemes/sizes.

    ``base`` is the config fields every cell shares (``{"scheme":
    "eager"}``); :func:`subpage_grid` lists the cells.

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
    return SweepResult.of(run_cells(
        jobs, workers=workers, cache=cache, progress=progress, pool=pool
    ))


def memory_sweep_jobs(
    trace: RunTrace,
    base: Mapping[str, Any],
    memory_fractions: Mapping[str, float],
) -> list[SweepJob]:
    """One set of config fields across memory sizes, keyed by label."""
    return _jobs(trace, [
        (label, {"memory_fraction": fraction, **base})
        for label, fraction in memory_fractions.items()
    ])


def run_memory_sweep(
    trace: RunTrace,
    base: Mapping[str, Any],
    memory_fractions: Mapping[str, float],
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    pool: WorkerPool | None = None,
) -> dict[str, SimulationResult]:
    """One set of config fields across several memory sizes."""
    jobs = memory_sweep_jobs(trace, base, memory_fractions)
    return run_cells(
        jobs, workers=workers, cache=cache, progress=progress, pool=pool
    )
