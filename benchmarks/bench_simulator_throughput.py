"""Simulator and trace-pipeline throughput benchmarks.

Unlike the figure benches (one-shot experiment regenerations), these are
conventional micro-benchmarks with repeated rounds: how fast the
simulator consumes compressed runs, and how fast traces are generated
and compressed.  Useful for catching performance regressions in the hot
loop.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.sweep import run_subpage_sweep
from repro.trace.compress import compress_references
from repro.trace.synth.apps import build_app_trace


@pytest.fixture(scope="module")
def mid_trace():
    """~40k-run mixed workload (deterministic)."""
    rng = np.random.default_rng(0)
    visits = rng.integers(0, 400, size=60_000)
    offsets = rng.integers(0, 96, size=60_000)
    base = visits * 8192 + offsets * 64
    runs = np.repeat(base, 8) + np.tile(
        np.arange(8, dtype=np.int64) * 8, 60_000
    )
    return compress_references(runs, name="throughput")


def test_simulate_eager_throughput(benchmark, mid_trace):
    config = SimulationConfig(
        memory_pages=128, scheme="eager", subpage_bytes=1024
    )
    result = benchmark(simulate, mid_trace, config)
    assert result.page_faults > 0
    runs_per_s = mid_trace.num_runs / benchmark.stats["mean"]
    print(f"\n  {runs_per_s / 1e3:.0f}k runs/s, "
          f"{mid_trace.num_references / benchmark.stats['mean'] / 1e6:.1f}M"
          " refs/s")


def test_simulate_fullpage_throughput(benchmark, mid_trace):
    config = SimulationConfig(
        memory_pages=128, scheme="fullpage", subpage_bytes=8192
    )
    result = benchmark(simulate, mid_trace, config)
    assert result.page_faults > 0


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "workers4"])
def test_parallel_sweep_throughput(benchmark, mid_trace, workers):
    """The Figure 3-shaped grid through the parallel executor.

    Compare the ``serial`` and ``workers4`` rows.  The per-cell totals
    are identical either way; on a multi-core host the 15-cell grid
    regenerates measurably faster with 4 workers.  On a single-CPU host
    the ``workers4`` row instead measures pure fan-out overhead (fork
    plus shipping each multi-megabyte ``SimulationResult`` back through
    a pipe) with no concurrent compute to hide it behind, so it comes
    out slower — the printed CPU count says which regime applies.
    """
    base = SimulationConfig(
        memory_pages=128, scheme="eager", subpage_bytes=1024
    )
    fractions = {"full": 1.0, "half": 0.5, "quarter": 0.25}
    sizes = [2048, 1024, 512]

    def sweep():
        return run_subpage_sweep(
            mid_trace, base, sizes, fractions, workers=workers
        )

    result = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(result.results) == len(fractions) * (2 + len(sizes))
    cells_per_s = len(result.results) / benchmark.stats["mean"]
    print(f"\n  workers={workers}: {cells_per_s:.1f} cells/s "
          f"({os.cpu_count()} host CPUs)")


def test_disabled_instrumentation_overhead(mid_trace):
    """Guard: the observability hooks cost <5% when not recording.

    Compares the default run (no instrument, ``observe=""``) against the
    same run with a no-op :class:`Instrument` attached — the worst case
    for a disabled hook (every guard branch taken AND every hook
    dispatched to an empty method).  Min-of-rounds keeps the comparison
    robust to scheduler noise.
    """
    import time

    from repro.obs.instrument import Instrument
    from repro.sim.simulator import Simulator

    config = SimulationConfig(
        memory_pages=128, scheme="eager", subpage_bytes=1024
    )

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    disabled_result = simulate(mid_trace, config)
    assert disabled_result.metrics is None
    assert disabled_result.trace_events is None

    disabled = best_of(lambda: simulate(mid_trace, config))
    noop = best_of(
        lambda: Simulator(config, instrument=Instrument()).run(mid_trace)
    )
    ratio = noop / disabled
    print(f"\n  disabled {disabled * 1e3:.0f} ms, "
          f"no-op instrument {noop * 1e3:.0f} ms, ratio {ratio:.3f}")
    assert ratio < 1.05


def test_trace_generation_throughput(benchmark):
    trace = benchmark(build_app_trace, "gdb")
    assert trace.num_runs > 10_000


def test_compression_throughput(benchmark):
    rng = np.random.default_rng(1)
    addrs = rng.integers(0, 1 << 28, size=500_000)

    trace = benchmark(compress_references, addrs)
    assert trace.num_references == 500_000
