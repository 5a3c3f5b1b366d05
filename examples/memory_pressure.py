#!/usr/bin/env python3
"""Memory-pressure study: the Figure 3 experiment for any application.

Sweeps memory size (full, 1/2, 1/4 of the footprint) x subpage size and
prints the paper's Figure 3 bars: disk, fullpage GMS, and eager fullpage
fetch at 4K down to 256 bytes.

Run:  python examples/memory_pressure.py [app]
"""

import sys

from repro import build_app_trace
from repro.analysis.report import ascii_bar_chart, percent
from repro.sim.sweep import MEMORY_FRACTIONS, SUBPAGE_SIZES, run_subpage_sweep


def main(app: str = "modula3") -> None:
    trace = build_app_trace(app)
    sweep = run_subpage_sweep(
        trace, {"scheme": "eager"}, SUBPAGE_SIZES, MEMORY_FRACTIONS
    )
    for memory in sweep.rows:
        values = [sweep.get(memory, col).total_ms for col in sweep.columns]
        print(
            ascii_bar_chart(
                sweep.columns,
                values,
                title=f"{app} @ {memory} (total runtime)",
                unit=" ms",
            )
        )
        full = sweep.get(memory, "p_8192")
        best_label = min(
            (c for c in sweep.columns if c.startswith("sp_")),
            key=lambda c: sweep.get(memory, c).total_ms,
        )
        best = sweep.get(memory, best_label)
        print(
            f"  best subpage config: {best_label} "
            f"({percent(best.improvement_vs(full))} vs fullpage)\n"
        )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "modula3")
