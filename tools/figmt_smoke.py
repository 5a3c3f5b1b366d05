#!/usr/bin/env python
"""figMT multi-tenant smoke (CI helper).

Runs the figMT experiment (a small tenant-count x scheme x subpage
grid), writes its artifacts, and checks the contract the experiment
promises:

* the exported ``figMT_multitenant.csv`` is rectangular, covers the
  full grid, and carries real per-tenant ``p99_ms`` values;
* a one-tenant interleaved run is bit-identical to a plain
  ``simulate`` of the same configuration with
  ``cluster_nodes = 1 + IDLE_NODES`` (the regression anchor), on every
  scheme and subpage size of the grid;
* the tenant-metrics JSON for the most contended cell validates against
  the ``repro.obs.tenants/v1`` schema (also re-checked by
  ``tools/validate_obs.py --tenant-metrics`` in CI).

    PYTHONPATH=src python tools/figmt_smoke.py --out DIR

Exits non-zero on the first violated expectation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

from repro.experiments import fig11_multitenant as figmt
from repro.experiments.export import export_csv
from repro.obs.tenants import validate_tenant_metrics
from repro.sim.multinode import workload_config
from repro.sim.multitenant import run_multi_tenant
from repro.sim.simulator import simulate


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_anchor() -> None:
    """One-tenant interleaved == plain simulate, every grid cell."""
    for scheme in figmt.SCHEMES:
        for size in figmt.SUBPAGE_SIZES:
            workload = figmt._workload(0, scheme, size)
            config = workload_config(workload, 0, seed=figmt._SEED)
            plain = simulate(
                workload.trace,
                config.with_overrides(cluster_nodes=1 + figmt.IDLE_NODES),
            )
            interleaved = run_multi_tenant(
                [workload], idle_nodes=figmt.IDLE_NODES, seed=figmt._SEED
            )
            cell = f"scheme {scheme!r}, subpage {size}"
            if plain != interleaved.per_tenant[workload.name]:
                fail(f"one-tenant anchor broken for {cell}")
            if plain.cluster_stats != interleaved.cluster_stats:
                fail(f"cluster stats diverge for {cell}")
    print("ok   one-tenant interleaved == plain simulate")


def check_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        fail("CSV has no data rows")
    header = rows[0]
    width = len(header)
    for key in ("tenants", "tenant", "p50_ms", "p99_ms", "slowdown",
                "fairness"):
        if key not in header:
            fail(f"CSV missing column {key!r}")
    expected = sum(figmt.TENANT_COUNTS) * len(figmt.SCHEMES) * len(
        figmt.SUBPAGE_SIZES
    )
    if len(rows) - 1 != expected:
        fail(f"CSV has {len(rows) - 1} data rows, expected {expected}")
    p99_col = header.index("p99_ms")
    p99_values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            fail(f"CSV row {i} has {len(row)} fields, header has {width}")
        p99_values.append(float(row[p99_col]))
    if not any(v > 0 for v in p99_values):
        fail("every p99_ms is zero — no faults were measured")
    print(f"ok   CSV: {len(rows) - 1} rows, p99 populated")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="DIR", default="figmt-artifacts",
                        help="artifact output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    check_anchor()

    result = figmt.run()
    files = export_csv("figMT", result)
    for name, text in files.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")
    check_csv(files["figMT_multitenant.csv"])

    problems = validate_tenant_metrics(result.tenant_metrics)
    if problems:
        fail("tenant metrics invalid: " + "; ".join(problems))
    metrics_path = out / "figMT_tenants.json"
    metrics_path.write_text(
        json.dumps(result.tenant_metrics, indent=2, sort_keys=True)
    )
    print(f"wrote {metrics_path}")
    print("ok   tenant metrics validate "
          f"({len(result.tenant_metrics['tenants'])} tenants, fairness "
          f"{result.tenant_metrics['fairness']:.2f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
