"""Figure 9: execution-time reduction for all five applications.

At 1/2-mem with 1K subpages, every application must gain from eager
fullpage fetch (paper: 20-44%) and gain more with pipelining (30-54%);
most of the eager benefit must come from overlapped I/O (53-83% share),
with bursty-faulting applications (gdb) at the top and smooth ones
(Atom) near the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.overlap import attribute_overlap
from repro.analysis.report import format_table, percent
from repro.experiments import common
from repro.trace.synth.apps import classic_app_names

MEMORY_FRACTION = 0.5
SUBPAGE_BYTES = 1024


@dataclass(frozen=True, slots=True)
class AppRow:
    app: str
    eager_improvement: float
    pipelined_improvement: float
    io_overlap_share: float
    page_faults: int


@dataclass(frozen=True, slots=True)
class Fig09Result:
    rows: list[AppRow]

    def row(self, app: str) -> AppRow:
        for r in self.rows:
            if r.app == app:
                return r
        raise KeyError(app)

    @property
    def eager_range(self) -> tuple[float, float]:
        vals = [r.eager_improvement for r in self.rows]
        return min(vals), max(vals)

    @property
    def pipelined_range(self) -> tuple[float, float]:
        vals = [r.pipelined_improvement for r in self.rows]
        return min(vals), max(vals)


def grid_specs() -> list[dict]:
    """Every cell of the Figure 9 sweep as :func:`common.warm_runs` specs."""
    specs = []
    for app in classic_app_names():
        specs.append({
            "app": app, "memory_fraction": MEMORY_FRACTION,
            "scheme": "fullpage", "subpage_bytes": 8192,
        })
        specs.append({
            "app": app, "memory_fraction": MEMORY_FRACTION,
            "scheme": "eager", "subpage_bytes": SUBPAGE_BYTES,
        })
        specs.append({
            "app": app, "memory_fraction": MEMORY_FRACTION,
            "scheme": "pipelined", "subpage_bytes": SUBPAGE_BYTES,
        })
    return specs


def run() -> Fig09Result:
    rows = []
    # One batch for the whole grid: per app, in grid_specs' order, the
    # fullpage, eager and pipelined runs.
    results = common.warm_runs(grid_specs())
    for i, app in enumerate(classic_app_names()):
        full, eager, piped = results[3 * i:3 * i + 3]
        overlap = attribute_overlap(eager)
        rows.append(
            AppRow(
                app=app,
                eager_improvement=eager.improvement_vs(full),
                pipelined_improvement=piped.improvement_vs(full),
                io_overlap_share=overlap.io_share,
                page_faults=full.page_faults,
            )
        )
    return Fig09Result(rows=rows)


def render(result: Fig09Result) -> str:
    rows = [
        (
            r.app,
            r.page_faults,
            percent(r.eager_improvement),
            percent(r.pipelined_improvement),
            percent(r.io_overlap_share, 0),
        )
        for r in result.rows
    ]
    table = format_table(
        ["app", "faults", "eager cut", "pipelined cut", "I/O share"],
        rows,
        title=(
            "Figure 9: execution-time reduction, 1/2-mem, 1K subpages "
            "(paper: eager 20-44%, pipelined 30-54%, I/O share 53-83%)"
        ),
    )
    lo_e, hi_e = result.eager_range
    lo_p, hi_p = result.pipelined_range
    notes = [
        "",
        f"measured ranges: eager {percent(lo_e)}..{percent(hi_e)}, "
        f"pipelined {percent(lo_p)}..{percent(hi_p)}",
    ]
    return table + "\n".join(notes)
