#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

    python3 bench/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments are results files written by ``bench/run.py --out``, given as
run pairs: parent first, then change, pair after pair (alternate which
commit runs first when making them).  For every (end-to-end metric,
workload) it prints both sides' median and quartiles, the change's win
fraction over the pairs (ties count for neither side), and a verdict
from the bounds in ``BENCHMARK.json``:

* ``improved``   -- over at least 10 pairs, the change wins at least
  9 in 10 and the medians differ by more than the parent's spread
  (distance between its quartiles);
* ``unresolved`` -- either side's spread, as a share of its median, is
  wider than the bound (unless every change run beats every parent
  run), so the data cannot rule a regression in or out;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the bound;
* ``ok``         -- none of the above.

A pair runs one seed on both sides; output digests that differ within
a pair, pairs of different seeds, and runs whose output checks failed
are flagged.  Per-layer metrics, when both sides were
traced, are listed without a verdict.  Exits non-zero on any regressed
or unresolved metric or any flag.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Share of pairs the change must win to claim a gain, and the fewest
#: pairs a gain may rest on.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path: str) -> dict[str, dict[str, Any]]:
    """A results file as ``workload -> entry``."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) across runs; a single run has no spread to measure."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict[str, Any]:
    """Classify one (metric, workload) from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse = -sign * (mc - mp) / mp if mp else 0.0
    widest = max(
        (p_q3 - p_q1) / mp if mp else 0.0,
        (c_q3 - c_q1) / mc if mc else 0.0,
    )
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and sign * (mc - mp) > p_q3 - p_q1
    ):
        kind = "improved"
    elif widest > bound and not all_better:
        kind = "unresolved"
    elif worse > bound:
        kind = "regressed"
    else:
        kind = "ok"
    return {
        "parent": (mp, p_q1, p_q3),
        "change": (mc, c_q1, c_q3),
        "delta": (mc - mp) / mp if mp else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "verdict": kind,
    }


def compare(
    parents: list[dict], changes: list[dict], spec: dict
) -> tuple[list[dict], list[str]]:
    """Rows for every (metric, workload) plus a list of flags."""
    rows, flags = [], []
    workloads = [w for w in parents[0] if all(w in r for r in parents + changes)]
    for workload in workloads:
        p_runs = [r[workload] for r in parents]
        c_runs = [r[workload] for r in changes]
        for p, c in zip(p_runs, c_runs):
            if p.get("seed") != c.get("seed"):
                flags.append(f"{workload}: a pair ran different seeds "
                             f"({p.get('seed')} and {c.get('seed')})")
            elif p.get("digest") != c.get("digest"):
                flags.append(f"{workload}: output digest differs at seed "
                             f"{p.get('seed')} (parent {p.get('digest')}, "
                             f"change {c.get('digest')})")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            if not all(r.get("correct", False) for r in runs):
                flags.append(f"{workload}: a {side} run failed its checks")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                metric["better"], metric["bound"],
            )
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
        if all("layers" in r for r in p_runs + c_runs):
            for metric in spec["per_layer"]:
                name = metric["name"]
                mp = statistics.median(r["layers"][name]["value"]
                                       for r in p_runs)
                mc = statistics.median(r["layers"][name]["value"]
                                       for r in c_runs)
                rows.append({
                    "workload": workload, "metric": name,
                    "unit": metric["unit"],
                    "parent": (mp, mp, mp), "change": (mc, mc, mc),
                    "delta": (mc - mp) / mp if mp else 0.0,
                    "wins": None, "pairs": len(p_runs), "verdict": "-",
                })
    return rows, flags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", metavar="PARENT.json CHANGE.json")
    args = parser.parse_args(argv)
    if len(args.runs) % 2:
        parser.error("give run pairs: PARENT.json CHANGE.json ...")
    spec = json.loads(SPEC_PATH.read_text())
    loaded = [load(path) for path in args.runs]
    rows, flags = compare(loaded[0::2], loaded[1::2], spec)

    def fmt(side: tuple[float, float, float]) -> str:
        return f"{side[0]:.4g} [{side[1]:.4g}, {side[2]:.4g}]"

    print(f"{'workload':<9} {'metric':<26} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}  verdict")
    for row in rows:
        wins = "" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        print(f"{row['workload']:<9} {row['metric']:<26} "
              f"{fmt(row['parent']):>30} {fmt(row['change']):>30} "
              f"{100 * row['delta']:>+7.1f}% {wins:>6}  {row['verdict']}")
    for flag in flags:
        print(f"FLAG: {flag}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad or flags else 0


if __name__ == "__main__":
    sys.exit(main())
