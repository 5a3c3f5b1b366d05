#!/usr/bin/env python3
"""Dispatch and adaptive-policy gates, recording BENCH_throughput.json.

Two measurements, one trajectory file:

* Dispatch: runs a 24-cell sweep over one shared trace through
  ``run_cells`` twice — the arena path (persistent ``WorkerPool``,
  trace written once to a file the workers map) and the per-cell-pickle
  path (a transient pool whose arena publishes nothing) — and gates on
  the reduction in per-cell dispatch overhead (wall time beyond the
  ideal parallel compute time).
* Adaptive policy: times the transparent ``"adaptive"`` meta-scheme
  (static predictor — bit-identical plans, but every fault-path event
  flows through the per-page access history) against plain pipelining
  on a hit-dominated cell and gates its overhead at 5%, the obs-layer
  guard's bar.  The scoreboard arm (static + ``switch_schemes``,
  accounting live, schedule still identical) is recorded for the
  trajectory only.

Appends one entry to the ``BENCH_throughput.json`` perf trajectory at
the repo root and exits non-zero if either gate fails.

The dispatch gate (3x) compares two overheads measured back-to-back on
the same machine, so it tolerates absolute noise by construction.

Usage:  python tools/bench_throughput.py [--min-dispatch-speedup 3.0]
                                         [--max-policy-overhead 0.05]
                                         [--out BENCH_throughput.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, "src")

import numpy as np

from repro.sim.config import SimulationConfig
from repro.sim.parallel import SweepJob, WorkerPool, run_cells
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

ROUNDS = 5

#: Dispatch measurement shape: one shared trace, this many cells, this
#: many worker processes, best-of-this-many rounds per path.
DISPATCH_CELLS = 24
DISPATCH_WORKERS = 4
DISPATCH_ROUNDS = 3

#: Floor for a measured overhead (ms): keeps the speedup ratio finite
#: when the arena path's overhead disappears into timer noise.
OVERHEAD_FLOOR_MS = 1.0


def hit_trace():
    """Hit-dominated workload; keep in sync with the fixture in
    ``benchmarks/bench_abl_adaptive_policy.py``."""
    rng = np.random.default_rng(7)
    visits = rng.integers(0, 400, size=60_000)
    starts = rng.integers(0, 112, size=60_000)
    blocks = (starts[:, None] + np.arange(16)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    refs = np.repeat(addrs, 4) + np.tile(
        np.arange(4, dtype=np.int64) * 8, addrs.size
    )
    return compress_references(refs, name="hitstream")


def time_policy_overhead(trace):
    """Adaptive-layer overhead vs plain pipelining, same schedule.

    Interleaved min-of-rounds with GC paused (an arm's allocations must
    not be billed for collecting the host process's heap): the
    ``history_tracking`` arm is transparent adaptive, the ``scoreboard``
    arm adds live prediction accounting via ``switch_schemes=True``
    (never fires at full confidence, so all three arms simulate the
    identical schedule).
    """
    import gc

    def policy_cfg(scheme, kwargs):
        return SimulationConfig(
            memory_pages=512,
            scheme=scheme,
            scheme_kwargs=kwargs,
            subpage_bytes=1024,
            track_distances=False,
            record_faults=False,
        )

    arms = [
        policy_cfg("pipelined", {}),
        policy_cfg("adaptive", {"predictor": "static"}),
        policy_cfg(
            "adaptive", {"predictor": "static", "switch_schemes": True}
        ),
    ]
    for arm in arms:  # warm trace columns + code paths
        simulate(trace, arm)
    best = [float("inf")] * len(arms)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS + 2):
            for i, arm in enumerate(arms):
                started = time.perf_counter()
                simulate(trace, arm)
                best[i] = min(best[i], time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    baseline_s, transparent_s, scored_s = best
    return {
        "pipelined_ms": round(baseline_s * 1e3, 3),
        "transparent_ms": round(transparent_s * 1e3, 3),
        "scoreboard_ms": round(scored_s * 1e3, 3),
        "history_tracking_overhead": round(
            transparent_s / baseline_s - 1.0, 4
        ),
        "scoreboard_overhead": round(scored_s / baseline_s - 1.0, 4),
    }


def sweep_trace():
    """A multi-megabyte, hit-dominated trace.

    Big in bytes (so per-cell pickling of it is the visible cost) but
    cheap to simulate (so compute does not drown the dispatch overhead
    being measured).
    """
    rng = np.random.default_rng(11)
    visits = rng.integers(0, 48, size=60_000)
    starts = rng.integers(0, 112, size=60_000)
    blocks = (starts[:, None] + np.arange(8)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.25
    return compress_references(addrs, writes, name="sweepstream")


def sweep_jobs(trace):
    """One shared trace, DISPATCH_CELLS identical-cost cells."""
    config = SimulationConfig(
        memory_pages=64,
        scheme="fullpage",
        subpage_bytes=8192,
        track_distances=False,
        record_faults=False,
        event_ns=1000.0,
        use_trace_dilation=False,
    )
    return [
        SweepJob(key=f"c{i:02d}", trace=trace, config=config)
        for i in range(DISPATCH_CELLS)
    ]


def _best_wall(run, rounds=DISPATCH_ROUNDS):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return min(times)


class _NoArena:
    """An arena that publishes nothing: every cell pickles its trace."""

    def publish(self, trace):
        return None

    def close(self):
        pass


def _run_pickled(jobs):
    with WorkerPool(DISPATCH_WORKERS, arena=_NoArena()) as pool:
        run_cells(jobs, pool=pool)


def time_dispatch(trace):
    """Per-cell dispatch overhead: shared arena vs per-cell pickling.

    Overhead is wall time beyond the ideal parallel compute time
    (serial wall / effective worker count), so the comparison isolates
    what execution *costs on top of* the simulations themselves.
    """
    jobs = sweep_jobs(trace)
    serial_s = _best_wall(lambda: run_cells(jobs, workers=1))
    effective = min(DISPATCH_WORKERS, os.cpu_count() or 1)
    ideal_s = serial_s / effective

    pickle_s = _best_wall(lambda: _run_pickled(jobs))

    with WorkerPool(DISPATCH_WORKERS) as pool:
        run_cells(jobs, pool=pool)  # warm workers + arena + worker LRUs
        arena_s = _best_wall(lambda: run_cells(jobs, pool=pool))

    def overhead_ms(wall_s):
        return max((wall_s - ideal_s) * 1e3, OVERHEAD_FLOOR_MS)

    pickle_overhead = overhead_ms(pickle_s)
    arena_overhead = overhead_ms(arena_s)
    return {
        "cells": DISPATCH_CELLS,
        "workers": DISPATCH_WORKERS,
        "effective_workers": effective,
        "rounds": DISPATCH_ROUNDS,
        "serial_ms": round(serial_s * 1e3, 1),
        "ideal_ms": round(ideal_s * 1e3, 1),
        "pickle_wall_ms": round(pickle_s * 1e3, 1),
        "arena_wall_ms": round(arena_s * 1e3, 1),
        "pickle_overhead_per_cell_ms": round(
            pickle_overhead / DISPATCH_CELLS, 3
        ),
        "arena_overhead_per_cell_ms": round(
            arena_overhead / DISPATCH_CELLS, 3
        ),
        "dispatch_speedup": round(pickle_overhead / arena_overhead, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-dispatch-speedup", type=float, default=3.0)
    parser.add_argument("--max-policy-overhead", type=float, default=0.05)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_throughput.json")
    )
    args = parser.parse_args()

    dispatch = time_dispatch(sweep_trace())
    print(
        f"dispatch        pickle {dispatch['pickle_overhead_per_cell_ms']:8.2f} "
        f"ms/cell   arena {dispatch['arena_overhead_per_cell_ms']:8.2f} "
        f"ms/cell   {dispatch['dispatch_speedup']:.2f}x"
    )

    trace = hit_trace()
    policy = time_policy_overhead(trace)
    print(
        f"adaptive        history "
        f"{policy['history_tracking_overhead']:+8.1%}   scoreboard "
        f"{policy['scoreboard_overhead']:+8.1%}"
    )

    entry = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "trace": {
            "name": "hitstream",
            "num_runs": trace.num_runs,
            "num_references": trace.num_references,
        },
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "dispatch": dispatch,
        "adaptive_policy": policy,
    }
    history = []
    if args.out.exists():
        history = json.loads(args.out.read_text())
    history.append(entry)
    args.out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended entry {len(history)} to {args.out}")

    failed = False
    dispatch_speedup = dispatch["dispatch_speedup"]
    if dispatch_speedup < args.min_dispatch_speedup:
        print(
            f"FAIL: dispatch-overhead reduction {dispatch_speedup:.2f}x "
            f"is below the {args.min_dispatch_speedup:.1f}x gate"
        )
        failed = True
    else:
        print(
            f"OK: dispatch-overhead reduction {dispatch_speedup:.2f}x "
            f">= {args.min_dispatch_speedup:.1f}x"
        )
    policy_overhead = policy["history_tracking_overhead"]
    if policy_overhead >= args.max_policy_overhead:
        print(
            f"FAIL: adaptive history tracking costs "
            f"{policy_overhead:.1%}, at or above the "
            f"{args.max_policy_overhead:.0%} gate"
        )
        failed = True
    else:
        print(
            f"OK: adaptive history tracking {policy_overhead:.1%} < "
            f"{args.max_policy_overhead:.0%}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
