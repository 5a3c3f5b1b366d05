#!/usr/bin/env python3
"""Two active nodes sharing library pages through global memory.

Section 2.1: "A fault on node A may be satisfied by node B, either
because B has stored A's page in its 'global memory', or because A has
faulted a page actively in use by B (e.g., a shared code page)."

Two compiler-like workloads run interleaved on separate cluster nodes.
Each has a private heap/source region plus a common shared-library
region (the same cluster-wide UIDs).  Whichever workload faults a
library page second is served by *copying* the page the other still
holds locally.

Run:  python examples/shared_pages.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.sim.multinode import NodeWorkload
from repro.sim.multitenant import run_multi_tenant
from repro.trace.compress import compress_references
from repro.trace.synth import (
    HotCold,
    Phase,
    PhaseComponent,
    Region,
    Sequential,
    ZipfPages,
    Workload,
)

SHARED_BASE_PAGE = 4096  # pages >= this are the shared library


def make_workload(name: str, seed: int):
    """A small compile-like job: private heap + shared library region."""
    private = Region(f"{name}_heap", base=0, size=48 * 8192)
    shared = Region(
        "shared_libs", base=SHARED_BASE_PAGE * 8192, size=48 * 8192
    )
    wl = Workload(name=name, dilation=10.0)
    wl.add(
        Phase(
            name="startup",
            refs=120_000,
            components=(
                PhaseComponent(shared, Sequential(stride=8), weight=1.0),
                PhaseComponent(
                    shared, ZipfPages(alpha=0.6, run_words=24), weight=1.0
                ),
                PhaseComponent(
                    private, HotCold(hot_fraction=0.4), weight=2.0,
                    write_fraction=0.3,
                ),
            ),
        )
    )
    wl.add(
        Phase(
            name="work",
            refs=300_000,
            components=(
                PhaseComponent(
                    private, ZipfPages(alpha=0.8, run_words=20),
                    weight=3.0, write_fraction=0.3,
                ),
                PhaseComponent(
                    shared, HotCold(hot_fraction=0.3, hot_prob=0.9),
                    weight=1.0,
                ),
            ),
        )
    )
    return wl.build(seed=seed)


def main() -> None:
    workloads = [
        NodeWorkload(
            name=f"compile{i}",
            trace=make_workload(f"compile{i}", seed=i),
            memory_pages=96,
            shared_from_page=SHARED_BASE_PAGE,
        )
        for i in range(2)
    ]
    result = run_multi_tenant(workloads, idle_nodes=2)

    rows = []
    for name, res in result.per_tenant.items():
        rows.append(
            [
                name,
                round(res.total_ms, 1),
                res.page_faults,
                res.evictions,
            ]
        )
    print(format_table(["workload", "total ms", "faults", "evictions"],
                       rows))
    print()
    stats = result.cluster_stats
    print(
        f"cluster: {stats['getpages']:.0f} getpages, "
        f"{stats['shared_copies']:.0f} served by copying pages another "
        f"active node holds, {stats['disk_fills']:.0f} disk fills, "
        f"{stats['messages']:.0f} protocol messages"
    )
    print(
        "a shared library page faulted while the other workload held "
        "it was copied from that workload's memory — the paper's "
        "shared-code-page case."
    )


if __name__ == "__main__":
    main()
