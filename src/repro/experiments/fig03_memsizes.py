"""Figure 3: subpage performance for three memory sizes (Modula-3).

Bars per memory configuration (full, 1/2, 1/4): disk_8192 (all faults
from disk), p_8192 (fullpage from global memory), then eager fullpage
fetch at subpage sizes 4096 down to 256.  Shape targets: global memory
beats disk ~1.7-2.2x; subpages improve on fullpage by ~8-40%; the benefit
grows with memory pressure; the best subpage size is 1K-2K.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import ascii_bar_chart, format_table, percent
from repro.experiments import common
from repro.sim import sweep

APP = "modula3"


@dataclass(frozen=True, slots=True)
class Fig03Result:
    app: str
    #: (memory label, bar label) -> total runtime ms.
    totals_ms: dict[tuple[str, str], float]
    memory_labels: tuple[str, ...]
    bar_labels: tuple[str, ...]

    def improvement_over_fullpage(
        self, memory: str, subpage_bytes: int
    ) -> float:
        full = self.totals_ms[(memory, "p_8192")]
        sub = self.totals_ms[(memory, f"sp_{subpage_bytes}")]
        return 1.0 - sub / full

    def disk_speedup(self, memory: str) -> float:
        return (
            self.totals_ms[(memory, "disk_8192")]
            / self.totals_ms[(memory, "p_8192")]
        )

    def best_subpage(self, memory: str) -> int:
        sizes = [
            int(label.split("_")[1])
            for label in self.bar_labels
            if label.startswith("sp_")
        ]
        return min(
            sizes, key=lambda s: self.totals_ms[(memory, f"sp_{s}")]
        )


#: The grid's ``((memory, bar), spec)`` cells: eager fetch at every
#: subpage size, beside the disk and fullpage baselines.
GRID = sweep.subpage_grid(
    {"scheme": "eager"}, common.SUBPAGE_SIZES, common.MEMORY_FRACTIONS
)


def grid_specs(app: str = APP) -> list[dict]:
    """Every cell of the Figure 3 grid as :func:`common.warm_runs` specs."""
    return [{"app": app, **spec} for _, spec in GRID]


def run(app: str = APP) -> Fig03Result:
    # One batch for the whole grid (parallel under --workers).
    results = common.warm_runs(grid_specs(app))
    totals = {key: r.total_ms for (key, _), r in zip(GRID, results)}
    return Fig03Result(
        app=app,
        totals_ms=totals,
        memory_labels=tuple(common.MEMORY_FRACTIONS),
        bar_labels=tuple(dict.fromkeys(bar for _, bar in totals)),
    )


def render(result: Fig03Result) -> str:
    out = [f"Figure 3: subpage performance, {result.app}"]
    for memory in result.memory_labels:
        values = [
            result.totals_ms[(memory, bar)] for bar in result.bar_labels
        ]
        out.append("")
        out.append(
            ascii_bar_chart(
                list(result.bar_labels),
                values,
                title=f"{memory} (total runtime, ms)",
                unit=" ms",
            )
        )
    rows = []
    for memory in result.memory_labels:
        rows.append(
            [
                memory,
                f"{result.disk_speedup(memory):.2f}x",
                percent(result.improvement_over_fullpage(memory, 1024)),
                result.best_subpage(memory),
            ]
        )
    out.append("")
    out.append(
        format_table(
            ["memory", "GMS vs disk", "sp_1024 vs p_8192", "best subpage"],
            rows,
        )
    )
    return "\n".join(out)
