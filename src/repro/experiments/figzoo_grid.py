"""figZOO: the workload-zoo grid — all nine apps x scheme x subpage.

The fig09 grid judges fetch policy on the paper's 1996 quintet; this
extension grid adds the four modern far-memory families
(:mod:`repro.trace.synth.modern`) and widens the matrix to three
subpage sizes per scheme, so every policy change is judged on modern
workloads too.

The grid documents two reproducible policy-ranking differences vs the
1996 apps (seed 0, 1/2-mem):

* **mltrain prefers coarse fetch.**  Its minibatch samples are long
  contiguous reads, so the eager benefit is *monotone decreasing* in
  subpage fineness — best at 4096 — while every 1996 app peaks at
  1024 (fine-grain actively hurts mltrain: eager@256 keeps only a few
  percent of the win).
* **Scattered small-object serving pushes the pipelining optimum below
  1K.**  kvserve, graph, and websess have best pipelined subpage 256
  (P(+1) =~ 25%, so predicted-order delivery only helps once subpages
  are cheap), while every 1996 app's best pipelined subpage stays at
  the paper's 1K sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table, percent
from repro.experiments import common
from repro.trace.synth.apps import (
    APP_MODELS,
    app_names,
    classic_app_names,
)

MEMORY_FRACTION = 0.5

#: Subpage sizes in the grid (coarse / paper sweet spot / fine).
GRID_SUBPAGES: tuple[int, ...] = (4096, 1024, 256)

SCHEMES: tuple[str, ...] = ("eager", "pipelined")


@dataclass(frozen=True, slots=True)
class ZooCell:
    """One grid cell: an app under one scheme/subpage configuration."""

    app: str
    era: str
    scheme: str
    subpage_bytes: int
    total_ms: float
    improvement: float


@dataclass(frozen=True, slots=True)
class ZooSummary:
    """Per-app digest of the grid."""

    app: str
    era: str
    page_faults: int
    best_eager_subpage: int
    best_pipelined_subpage: int
    eager_1024: float
    pipelined_1024: float


@dataclass(frozen=True, slots=True)
class FigZooResult:
    """The full grid plus per-app digests."""

    cells: list[ZooCell]
    summaries: list[ZooSummary]

    def summary(self, app: str) -> ZooSummary:
        for s in self.summaries:
            if s.app == app:
                return s
        raise KeyError(app)

    def cell(self, app: str, scheme: str, subpage_bytes: int) -> ZooCell:
        for c in self.cells:
            if (
                c.app == app
                and c.scheme == scheme
                and c.subpage_bytes == subpage_bytes
            ):
                return c
        raise KeyError((app, scheme, subpage_bytes))


def grid_specs() -> list[dict]:
    """Every cell of the zoo grid as :func:`common.warm_runs` specs."""
    specs = []
    for app in app_names():
        specs.append({
            "app": app, "memory_fraction": MEMORY_FRACTION,
            "scheme": "fullpage", "subpage_bytes": 8192,
        })
        for scheme in SCHEMES:
            for subpage in GRID_SUBPAGES:
                specs.append({
                    "app": app, "memory_fraction": MEMORY_FRACTION,
                    "scheme": scheme, "subpage_bytes": subpage,
                })
    return specs


def run() -> FigZooResult:
    """Run the grid in one batch, then digest it per app, reading the
    results in grid_specs' order."""
    results = iter(common.warm_runs(grid_specs()))
    cells: list[ZooCell] = []
    summaries: list[ZooSummary] = []
    for app in app_names():
        era = APP_MODELS[app].era
        full = next(results)
        best: dict[str, tuple[int, float]] = {}
        at_1024: dict[str, float] = {}
        for scheme in SCHEMES:
            for subpage in GRID_SUBPAGES:
                result = next(results)
                improvement = result.improvement_vs(full)
                cells.append(
                    ZooCell(
                        app=app,
                        era=era,
                        scheme=scheme,
                        subpage_bytes=subpage,
                        total_ms=result.total_ms,
                        improvement=improvement,
                    )
                )
                if scheme not in best or improvement > best[scheme][1]:
                    best[scheme] = (subpage, improvement)
                if subpage == 1024:
                    at_1024[scheme] = improvement
        summaries.append(
            ZooSummary(
                app=app,
                era=era,
                page_faults=full.page_faults,
                best_eager_subpage=best["eager"][0],
                best_pipelined_subpage=best["pipelined"][0],
                eager_1024=at_1024["eager"],
                pipelined_1024=at_1024["pipelined"],
            )
        )
    return FigZooResult(cells=cells, summaries=summaries)


def render(result: FigZooResult) -> str:
    """The summary table plus the ranking-flip notes, computed from data."""
    rows = [
        (
            s.app,
            s.era,
            s.page_faults,
            percent(s.eager_1024),
            percent(s.pipelined_1024),
            s.best_eager_subpage,
            s.best_pipelined_subpage,
        )
        for s in result.summaries
    ]
    table = format_table(
        ["app", "era", "faults", "eager@1K", "piped@1K",
         "best ea", "best pi"],
        rows,
        title=(
            "figZOO: workload-zoo grid, 1/2-mem "
            "(improvement over 8K fullpage; best subpage per scheme)"
        ),
    )
    classics = set(classic_app_names())
    classic_best_pi = sorted(
        {s.best_pipelined_subpage
         for s in result.summaries if s.app in classics}
    )
    fine_moderns = [
        s.app
        for s in result.summaries
        if s.era == "modern" and s.best_pipelined_subpage < 1024
    ]
    coarse_moderns = [
        s.app
        for s in result.summaries
        if s.era == "modern" and s.best_eager_subpage > 1024
    ]
    notes = [
        "",
        f"classic best pipelined subpage(s): {classic_best_pi}",
        f"modern families preferring finer pipelined fetch (<1K): "
        f"{fine_moderns or 'none'}",
        f"modern families preferring coarser eager fetch (>1K): "
        f"{coarse_moderns or 'none'}",
    ]
    return table + "\n".join(notes)
