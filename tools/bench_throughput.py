#!/usr/bin/env python3
"""Dispatch, adaptive-policy and instrumentation gates, recording
BENCH_throughput.json.

Three measurements, four gates, one trajectory file:

* Dispatch: runs a 24-cell sweep over one shared trace through
  ``run_cells`` serially and on one persistent ``WorkerPool`` two ways
  — the arena path (trace written once to a file the workers map) and
  the per-cell-pickle path (the same workers, every cell shipping its
  trace by pickle) — and gates on the reduction in per-cell dispatch
  overhead (wall time beyond the ideal parallel compute time).
* Adaptive policy: times the transparent ``"adaptive"`` meta-scheme
  (static predictor — bit-identical plans, but every fault-path event
  flows through the per-page access history) against plain pipelining
  on a hit-dominated cell and gates its overhead at 5%.  The
  scoreboard arm (static + ``switch_schemes``: accounting live,
  schedule still identical) is opted-in accounting, so it only gets a
  20% backstop against pathological regressions such as per-hit work.
* Instrumentation: times a run with a no-op ``Instrument`` attached
  (every guard taken, every hook dispatched to an empty method)
  against the same run with none, and gates the ratio at 1.05: the
  observability layer's disabled-cost budget.

Every gate times its arms in mirrored rounds (A B C C B A, so drift
and position costs land on every arm alike) and compares the median of
the per-round figures against the bound: a host slowdown during one
round moves that round's figure, not one arm's.

Appends one entry to the ``BENCH_throughput.json`` perf trajectory at
the repo root and exits non-zero if any gate fails.

Usage:  python tools/bench_throughput.py [--min-dispatch-speedup 3.0]
                                         [--max-policy-overhead 0.05]
                                         [--out BENCH_throughput.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, "src")

import numpy as np

from repro.obs.instrument import Instrument
from repro.sim.config import SimulationConfig
from repro.sim.parallel import SweepJob, WorkerPool, run_cells
from repro.sim.simulator import Simulator, simulate
from repro.trace.compress import compress_references

#: Mirrored rounds per timed gate (each round runs every arm twice).
#: The adaptive gate measures about 1 ms on a 32 ms base, so it takes more
#: rounds for its median to hold still on a shared host.
POLICY_ROUNDS = 90
INSTRUMENT_ROUNDS = 30

#: Backstop for the opted-in prediction scoreboard (fractional
#: overhead over plain pipelining).
MAX_SCOREBOARD_OVERHEAD = 0.20

#: Bound on the median (no-op instrument / no instrument) time ratio.
MAX_INSTRUMENT_RATIO = 1.05

#: Dispatch measurement shape: one shared trace, this many cells, this
#: many worker processes, this many mirrored rounds.
DISPATCH_CELLS = 24
DISPATCH_WORKERS = 4
DISPATCH_ROUNDS = 5

#: Floor for a measured overhead (ms): keeps the speedup ratio finite
#: when the arena path's overhead disappears into timer noise.
OVERHEAD_FLOOR_MS = 1.0


def mirrored_rounds(arms, rounds, pause_gc=False):
    """Time the arms in mirrored rounds: each arm's time per run (s),
    one entry per round.

    Each round runs every arm forward and then in reverse (A B B A), so
    a cost that depends on a run's position — the run after another
    paying for its garbage, say — lands on every arm alike.  With
    ``pause_gc`` the collector is off while timing, so one arm's
    allocations are not billed for walking the host process's heap.
    """
    for arm in arms:  # warm trace columns, code paths, pools
        arm()
    order = list(range(len(arms)))
    times = [[] for _ in arms]
    gc_was_enabled = gc.isenabled()
    if pause_gc:
        gc.disable()
    try:
        for _ in range(rounds):
            spent = [0.0] * len(arms)
            for i in order + order[::-1]:
                started = time.perf_counter()
                arms[i]()
                spent[i] += time.perf_counter() - started
            for arm_times, elapsed in zip(times, spent):
                arm_times.append(elapsed / 2)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times


def alternating_medians(arms, rounds, pause_gc=False):
    """Time the arms in :func:`mirrored_rounds` and compare medians.

    Returns each arm's median time per run (s) and each later arm's
    median per-round ratio to the first.
    """
    times = mirrored_rounds(arms, rounds, pause_gc)
    medians = [statistics.median(t) for t in times]
    ratios = [
        statistics.median(a / b for a, b in zip(t, times[0]))
        for t in times[1:]
    ]
    return medians, ratios


def hit_trace():
    """Hit-dominated workload for the policy gate."""
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

    The ``history_tracking`` arm is transparent adaptive; the
    ``scoreboard`` arm adds live prediction accounting via
    ``switch_schemes=True`` (never fires at full confidence, so all
    three arms simulate the identical schedule, which ``same_schedule``
    checks).  GC is paused while timing.
    """

    def policy_cfg(scheme, kwargs):
        return SimulationConfig(
            memory_pages=512,
            scheme=scheme,
            scheme_kwargs=kwargs,
            subpage_bytes=1024,
        )

    arms = [
        policy_cfg("pipelined", {}),
        policy_cfg("adaptive", {"predictor": "static"}),
        policy_cfg(
            "adaptive", {"predictor": "static", "switch_schemes": True}
        ),
    ]
    baseline = simulate(trace, arms[0])
    tracked = simulate(trace, arms[2])
    (baseline_s, transparent_s, scored_s), (history, scored) = (
        alternating_medians(
            [lambda arm=arm: simulate(trace, arm) for arm in arms],
            POLICY_ROUNDS,
            pause_gc=True,
        )
    )
    return {
        "rounds": POLICY_ROUNDS,
        "pipelined_ms": round(baseline_s * 1e3, 3),
        "transparent_ms": round(transparent_s * 1e3, 3),
        "scoreboard_ms": round(scored_s * 1e3, 3),
        "history_tracking_overhead": round(history - 1.0, 4),
        "scoreboard_overhead": round(scored - 1.0, 4),
        "same_schedule": tracked.total_ms == baseline.total_ms,
        "policy_faults": int(tracked.policy_stats["faults"]),
    }


def mid_trace():
    """~40k-run mixed workload for the instrumentation gate."""
    rng = np.random.default_rng(0)
    visits = rng.integers(0, 400, size=60_000)
    offsets = rng.integers(0, 96, size=60_000)
    base = visits * 8192 + offsets * 64
    runs = np.repeat(base, 8) + np.tile(
        np.arange(8, dtype=np.int64) * 8, 60_000
    )
    return compress_references(runs, name="throughput")


def time_instrumentation(trace):
    """A no-op instrument's cost over no instrument, GC left on.

    The no-op instrument is the worst case for disabled observability:
    every ``if instrument is not None`` guard is taken and every hook is
    dispatched, to a method that does nothing.
    """
    config = SimulationConfig(
        memory_pages=128, scheme="eager", subpage_bytes=1024
    )
    plain = simulate(trace, config)
    (plain_s, noop_s), (ratio,) = alternating_medians(
        [
            lambda: simulate(trace, config),
            lambda: Simulator(config, instrument=Instrument()).run(trace),
        ],
        INSTRUMENT_ROUNDS,
    )
    return {
        "rounds": INSTRUMENT_ROUNDS,
        "page_faults": plain.page_faults,
        "no_payloads": plain.metrics is None and plain.trace_events is None,
        "disabled_ms": round(plain_s * 1e3, 3),
        "noop_ms": round(noop_s * 1e3, 3),
        "noop_ratio": round(ratio, 4),
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
        event_ns=1000.0,
        use_trace_dilation=False,
    )
    return [
        SweepJob(key=f"c{i:02d}", trace=trace, config=config)
        for i in range(DISPATCH_CELLS)
    ]


class _NoArena:
    """An arena that publishes nothing: every cell pickles its trace."""

    def publish(self, trace):
        return None

    def close(self):
        pass


def _run_pickled(jobs, pool):
    """Run ``jobs`` on ``pool``'s workers with every trace pickled."""
    arena, pool.arena = pool.arena, _NoArena()
    try:
        run_cells(jobs, pool=pool)
    finally:
        pool.arena = arena


def time_dispatch(trace):
    """Per-cell dispatch overhead: shared arena vs per-cell pickling.

    Overhead is wall time beyond the ideal parallel compute time
    (serial wall / effective worker count), so the comparison isolates
    what execution *costs on top of* the simulations themselves.  The
    serial, pickle and arena arms run in mirrored rounds on one
    persistent pool, and the gate reads the median per-round speedup.
    """
    jobs = sweep_jobs(trace)
    effective = min(DISPATCH_WORKERS, os.cpu_count() or 1)

    def overhead_ms(wall_s, serial_s):
        return max((wall_s - serial_s / effective) * 1e3, OVERHEAD_FLOOR_MS)

    with WorkerPool(DISPATCH_WORKERS) as pool:
        serial, pickled, arena = mirrored_rounds(
            [
                lambda: run_cells(jobs, workers=1),
                lambda: _run_pickled(jobs, pool),
                lambda: run_cells(jobs, pool=pool),
            ],
            DISPATCH_ROUNDS,
        )
    speedups = [
        overhead_ms(p, s) / overhead_ms(a, s)
        for s, p, a in zip(serial, pickled, arena)
    ]
    serial_s, pickle_s, arena_s = (
        statistics.median(t) for t in (serial, pickled, arena)
    )
    return {
        "cells": DISPATCH_CELLS,
        "workers": DISPATCH_WORKERS,
        "effective_workers": effective,
        "rounds": DISPATCH_ROUNDS,
        "serial_ms": round(serial_s * 1e3, 1),
        "ideal_ms": round(serial_s / effective * 1e3, 1),
        "pickle_wall_ms": round(pickle_s * 1e3, 1),
        "arena_wall_ms": round(arena_s * 1e3, 1),
        "pickle_overhead_per_cell_ms": round(
            overhead_ms(pickle_s, serial_s) / DISPATCH_CELLS, 3
        ),
        "arena_overhead_per_cell_ms": round(
            overhead_ms(arena_s, serial_s) / DISPATCH_CELLS, 3
        ),
        "round_speedups": [round(x, 3) for x in speedups],
        "dispatch_speedup": round(statistics.median(speedups), 3),
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

    instrumentation = time_instrumentation(mid_trace())
    print(
        f"instrument      disabled {instrumentation['disabled_ms']:8.1f} "
        f"ms   no-op {instrumentation['noop_ms']:8.1f} ms   ratio "
        f"{instrumentation['noop_ratio']:.3f}"
    )

    entry = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "trace": {
            "name": "hitstream",
            "num_runs": trace.num_runs,
            "num_references": trace.num_references,
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
        "dispatch": dispatch,
        "adaptive_policy": policy,
        "instrumentation": instrumentation,
    }
    history = []
    if args.out.exists():
        history = json.loads(args.out.read_text())
    history.append(entry)
    args.out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended entry {len(history)} to {args.out}")

    history_overhead = policy["history_tracking_overhead"]
    scored_overhead = policy["scoreboard_overhead"]
    ratio = instrumentation["noop_ratio"]
    gates = [
        (
            dispatch["dispatch_speedup"] >= args.min_dispatch_speedup,
            f"dispatch-overhead reduction {dispatch['dispatch_speedup']:.2f}x"
            f" (gate >= {args.min_dispatch_speedup:.1f}x)",
        ),
        (
            policy["same_schedule"]
            and policy["policy_faults"] > 0
            and history_overhead < args.max_policy_overhead,
            f"adaptive history tracking {history_overhead:.1%} "
            f"(gate < {args.max_policy_overhead:.0%}; same schedule: "
            f"{policy['same_schedule']}, "
            f"{policy['policy_faults']} policy faults)",
        ),
        (
            scored_overhead < MAX_SCOREBOARD_OVERHEAD,
            f"prediction scoreboard {scored_overhead:.1%} "
            f"(backstop < {MAX_SCOREBOARD_OVERHEAD:.0%})",
        ),
        (
            instrumentation["page_faults"] > 0
            and instrumentation["no_payloads"]
            and ratio < MAX_INSTRUMENT_RATIO,
            f"no-op instrument {ratio:.3f}x the uninstrumented run "
            f"(gate < {MAX_INSTRUMENT_RATIO})",
        ),
    ]
    for ok, message in gates:
        print(f"{'OK' if ok else 'FAIL'}: {message}")
    return 0 if all(ok for ok, _ in gates) else 1


if __name__ == "__main__":
    raise SystemExit(main())
