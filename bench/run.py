#!/usr/bin/env python3
"""End-to-end benchmark of the real grids, with per-layer attribution.

    python3 bench/run.py [--seed N] [--out FILE] [--trace-out FILE]

runs every workload (``zoo``, ``memsizes``, ``tenants``, ``service``;
see ``bench/README.md``) in its own subprocess, one at a time: timed
passes, then one traced pass.  It prints every end-to-end metric with
its unit, then the per-layer table, writes the results JSON and a
Chrome/Perfetto trace (one process per workload), and exits non-zero
when any output check fails.

    python3 bench/run.py --workload zoo --seed 3 --seconds 30 --trace 0

runs one workload in this process and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).

Host time throughout; every simulated statistic is deterministic and
checked.  ``REPRO_*`` environment knobs are dropped so that every run
measures the defaults: serial cells, no ambient cache or store.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-ups per run (at least): each rebuilds every trace and its
#: columns from scratch; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Cheap set-ups repeat until this much time has gone into them, up to
#: :data:`SETUP_MAX` times.
SETUP_SECONDS = 2.0
SETUP_MAX = 64

#: Timed passes per run (at least).
MIN_PASSES = 2


@functools.cache
def spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the metrics, their units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit(name: str) -> str:
    return next(
        m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]
        if m["name"] == name
    )


def scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob (worker count, cache, store, shm,
    kernel tier) so runs measure the program's defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def environment() -> dict[str, Any]:
    """What the numbers were measured on."""
    import numpy

    from repro.sim.kernels import kernel_name

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel": kernel_name(),
        "machine": platform.machine(),
        "commit": commit,
    }


# -- statistics -------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles(n=100)``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def stat(name: str, values: list[float], value: float | None = None):
    q1, median, q3 = quartiles(values)
    return {
        "value": median if value is None else value,
        "unit": unit(name),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def end_to_end(setups: list[float], passes: list) -> dict[str, dict]:
    """The end-to-end metrics of one run's timed passes.

    Times are host seconds scaled to the reference host speed
    (``workloads.HostClock``).  Every pass does the same work, so each
    timing is the median over the passes (garbage collection included:
    it is the program's cost too), with the quartiles and the pass
    count alongside.  The cell percentiles pool every cell of every
    pass.
    """
    pooled_ms = [1e3 * s for p in passes for s in p.cells]
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    metrics = {
        "wall_s": stat("wall_s", [p.wall_s for p in passes]),
        "cached_wall_s": stat(
            "cached_wall_s", [p.cached_wall_s for p in passes]
        ),
        "setup_s": stat("setup_s", setups),
        "sim_mrefs_per_s": stat(
            "sim_mrefs_per_s", [p.refs / p.wall_s / 1e6 for p in passes]
        ),
    }
    for pct in (50, 90):
        name = f"cell_p{pct}_ms"
        metrics[name] = stat(
            name, [percentile([1e3 * s for s in p.cells], pct)
                   for p in passes],
            percentile(pooled_ms, pct),
        )
        metrics[name]["n"] = len(pooled_ms)
    metrics["peak_rss_mb"] = {
        "value": rss_kb / 1024, "unit": unit("peak_rss_mb")
    }
    return metrics


# -- one workload -----------------------------------------------------------


def measure(workload: Any, seconds: float) -> tuple[list[float], list]:
    """Set up repeatedly, then time passes for ``seconds``.

    Set-up repeats at least :data:`SETUP_REPEATS` times and until
    :data:`SETUP_SECONDS` have gone into it, so cheap set-ups still give
    a steady median.  Then come at least :data:`MIN_PASSES` passes, and
    more while the next one, as long as the last, ends within
    ``seconds`` of the run's start: a run's length follows ``seconds``
    rather than the host's speed.  With ``seconds`` 0 (a smoke run): one
    set-up, one pass.

    Returns the set-up times and the passes.
    """
    from workloads import HostClock, settle

    started = time.perf_counter()
    setups: list[float] = []
    if not getattr(workload, "setup_in_pass", False):
        clock = HostClock()
        while len(setups) < SETUP_REPEATS or (
            clock.raw < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            began = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - began) * clock.lap())
            if seconds <= 0:
                break
    min_passes = MIN_PASSES if seconds > 0 else 1
    passes: list = []
    last = 0.0
    while len(passes) < min_passes or (
        time.perf_counter() - started + last <= seconds
    ):
        began = time.perf_counter()
        settle()
        passes.append(workload.run_pass())
        last = time.perf_counter() - began
    boots = [p.boot_s for p in passes if p.boot_s is not None]
    return boots or setups, passes


def traced_pass(workload: Any, index: int) -> tuple[Any, dict, list]:
    """One pass (with a fresh set-up) under the layer wrappers."""
    import tracer as tracing
    from workloads import settle

    settle()
    tracer = tracing.Tracer()
    patches, mix = tracing.install(tracer)
    try:
        with tracer.gc, tracer.span("bench.pass"):
            started = time.perf_counter()
            with tracer.span("bench.setup"):
                workload.setup()
            run = workload.run_pass(tracer)
            wall = time.perf_counter() - started
    finally:
        patches.restore()
    layers = tracing.layer_metrics(tracer, mix, wall)
    return run, layers, tracing.chrome_events(tracer.spans(), index)


def simulated_layers(run: Any) -> dict[str, float]:
    """Per-layer metrics read from the results and events, exactly."""
    sim = run.statuses
    computed = sum(n for s, n in sim.items() if s != "cache-error")
    background = run.sim.get("background_transfers", 0)
    getpages = run.sim.get("getpages", 0)
    return {
        "parallel.cache_hit_ratio": sim["cached"] / computed if computed else 0.0,
        "parallel.cells_retried": sim["retried"],
        "store.puts_failed": sim["cache-error"],
        "service.queue_s": run.queue_s,
        "link.queueing_delay_ms": run.sim.get("queueing_delay_ms", 0.0),
        "link.cancelled_frac": (
            run.sim.get("cancelled_transfers", 0) / background
            if background else 0.0
        ),
        "cluster.global_hit_ratio": (
            run.sim.get("global_hits", 0) / getpages if getpages else 0.0
        ),
    }


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    import workloads

    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root()))
    workload = workloads.make(
        args.workload, args.seed, scratch, ROOT, args.quick
    )
    result: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds,
    }
    try:
        setups, passes = measure(workload, args.seconds)
        result["metrics"] = end_to_end(setups, passes)
        runs = list(passes)
        if args.trace:
            run, layers, events = traced_pass(
                workload, workloads.WORKLOADS.index(args.workload)
            )
            runs.append(run)
            layers.update(simulated_layers(run))
            # Unscaled host seconds on both sides: the traced pass's cold
            # and cached parts against the untraced passes' median.
            untraced = statistics.median(
                p.raw_wall_s + p.raw_cached_wall_s for p in passes
            )
            layers["trace.overhead_frac"] = (
                (run.raw_wall_s + run.raw_cached_wall_s) / untraced - 1.0
            )
            diagnostic = getattr(workload, "engine_diagnostic", None)
            try:
                layers.update(
                    diagnostic() if diagnostic is not None else {}
                )
            except workloads.ArmsDiffer as exc:
                result["diagnostic_error"] = str(exc)
            result["layers"] = {
                name: {"value": layers.get(name, 0.0), "unit": unit(name)}
                for name in (m["name"] for m in spec()["per_layer"])
            }
            result["spans"] = events
        result.update(check(args, runs))
        if "diagnostic_error" in result:
            result["failed"] += 1
            result["correct"] = False
        result["samples"] = {
            "setup_s": setups,
            "wall_s": [p.wall_s for p in passes],
            "cached_wall_s": [p.cached_wall_s for p in passes],
            "raw_wall_s": [p.raw_wall_s for p in passes],
            "raw_cached_wall_s": [p.raw_cached_wall_s for p in passes],
            "cells": [p.cells for p in passes],
        }
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def check(args: argparse.Namespace, runs: list) -> dict[str, Any]:
    """Output checks: every pass gives the same digest, which at seed 0
    is the pinned one."""
    expected = runs[0].digest
    pinned = None
    if not args.quick and args.seed == 0:
        pinned = json.loads((BENCH / "digests.json").read_text()).get(
            args.workload
        )
    if pinned is not None:
        expected = pinned
    failed = sum(r.failed for r in runs)
    failed += sum(len(r.cells) for r in runs if r.digest != expected)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "digest": runs[0].digest,
    }


def scratch_root() -> Path:
    """Where runs keep temporary stores and caches (inside the checkout)."""
    path = ROOT / ".bench_out" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def print_metrics(name: str, metrics: dict[str, dict]) -> None:
    for metric, m in metrics.items():
        spread = ""
        if "q1" in m:
            spread = f"  (q1 {m['q1']:.4g}, q3 {m['q3']:.4g}, n={m['n']})"
        print(f"{name:<9} {metric:<26} {m['value']:>12.4f} {m['unit']}"
              f"{spread}")


def main_workload(args: argparse.Namespace) -> int:
    result = run_workload(args)
    result["env"] = environment()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    if args.trace_out and "spans" in result:
        from repro.obs.tracing import write_chrome_trace

        write_chrome_trace(args.trace_out, result["spans"],
                           {result["spans"][0]["node"]: args.workload}
                           if result["spans"] else None)
    key = "layers" if args.trace else "metrics"
    print_metrics(args.workload, result[key])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result[key].items()
        },
    }))
    return 0 if result["correct"] else 1


# -- every workload -----------------------------------------------------------


def main_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_out"
    out = Path(args.out or out_dir / "results.json")
    trace_out = Path(args.trace_out or out_dir / "trace.json")
    seconds = 0 if args.quick else args.seconds
    results: dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "workloads": {},
    }
    status = 0
    events: list[dict[str, Any]] = []
    scratch = Path(tempfile.mkdtemp(prefix="all-", dir=scratch_root()))
    try:
        for name in WORKLOADS:
            # The untraced passes give the end-to-end metrics; the traced
            # pass that follows them, in the same process, the layers.
            part = scratch / f"{name}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", "1",
                "--out", str(part),
            ] + (["--quick"] if args.quick else [])
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900
            )
            if proc.returncode != 0 or not part.exists():
                print(f"{name}: run failed (exit {proc.returncode})",
                      file=sys.stderr)
                status = 1
                if not part.exists():
                    continue
            run = json.loads(part.read_text())
            results["env"] = run.pop("env")
            events.extend(run.pop("spans"))
            run["failed_frac"] = run["failed"] / run["attempted"]
            results["workloads"][name] = run
            print_metrics(name, run["metrics"])
            print(f"{name:<9} {'failed_frac':<26} {run['failed_frac']:>12.4f} "
                  f"ratio  ({run['failed']} of {run['attempted']})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print_layers(results["workloads"])
    from repro.obs.tracing import write_chrome_trace

    write_chrome_trace(trace_out, events, dict(enumerate(WORKLOADS)))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"results: {out}\ntrace:   {trace_out}")
    return status


def print_layers(entries: dict[str, dict]) -> None:
    names = [name for name, e in entries.items() if "layers" in e]
    if not names:
        return
    print()
    print(f"{'layer metric':<28}" + "".join(f"{n:>13}" for n in names))
    for metric in (m["name"] for m in spec()["per_layer"]):
        row = "".join(
            f"{entries[n]['layers'][metric]['value']:>13.4g}" for n in names
        )
        print(f"{metric:<28}{row}  {unit(metric)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec()["run_seconds"],
        help="measuring time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: report the per-layer metrics of a traced pass",
    )
    parser.add_argument("--out", help="results JSON path")
    parser.add_argument("--trace-out", help="Chrome/Perfetto trace path")
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke run: reduced grids, one pass, no pinned digests",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scrub_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload:
        # One CPU for this process and the service it starts: the probe
        # then times the CPU the cells run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return main_workload(args)
    return main_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
