"""Ablation G: the online adaptive fetch policy (repro.policy).

Where Ablation F closes the Section 4.3 prediction loop *offline* (one
profiling run builds a static :class:`DistanceSequencer`), this
ablation closes it *online*: the ``"adaptive"`` meta-scheme learns each
page's stride as the run executes and reorders/deepens the pipeline per
fault.  Compared here, all at 1/2 memory with 1K subpages:

* static pipelining (the paper's +1/-1 scheme) — the baseline,
* adaptive with the static predictor — must tie the baseline exactly
  (transparent mode; the equivalence suite holds it to bit identity),
* adaptive with the stride predictor (depth 6) — the headline arm,
* adaptive stride with lazy switching — the full fallback ladder.

Expected shape: the transparent arm ties, the stride arm wins on the
sequential-heavy compile workload, and history tracking costs under 5%
wall clock on a hit-dominated full-memory cell.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.simulator import simulate
from repro.trace.synth.apps import build_app_trace

APPS = ("modula3", "ld")
SUBPAGE = 1024

VARIANTS = {
    "pipelined static": ("pipelined", {}),
    "adaptive transparent": ("adaptive", {"predictor": "static"}),
    "adaptive stride": (
        "adaptive",
        {"predictor": "stride", "max_depth": 6},
    ),
    "adaptive stride+lazy": (
        "adaptive",
        {"predictor": "stride", "max_depth": 6, "switch_schemes": True},
    ),
}


def run() -> dict[str, dict[str, object]]:
    out: dict[str, dict[str, object]] = {}
    for app in APPS:
        trace = build_app_trace(app)
        memory = memory_pages_for(trace, 0.5)
        results = {}
        for label, (scheme, kwargs) in VARIANTS.items():
            results[label] = simulate(trace, SimulationConfig(
                memory_pages=memory,
                scheme=scheme,
                scheme_kwargs=dict(kwargs),
                subpage_bytes=SUBPAGE,
                track_distances=False,
            ))
        out[app] = {"results": results}
    return out


def render(out) -> str:
    tables = []
    for app, data in out.items():
        results = data["results"]
        baseline = results["pipelined static"]
        rows = []
        for label, res in results.items():
            stats = res.policy_stats
            rows.append([
                label,
                round(res.total_ms, 1),
                f"{res.improvement_vs(baseline) * 100:+.1f}%",
                f"{stats.get('pred_hit_rate', 0.0):.0%}"
                if stats else "-",
                int(stats.get("lazy_fallbacks", 0)) if stats else "-",
            ])
        tables.append(format_table(
            ["variant", "total ms", "vs static", "pred hits", "lazy"],
            rows,
            title=f"Ablation G ({app}, 1/2-mem, {SUBPAGE}B)",
        ))
    return "\n\n".join(tables)


def test_abl_adaptive_policy(report):
    out = report(run, render)
    for app, data in out.items():
        results = data["results"]
        static = results["pipelined static"]
        # Transparent mode is the same computation: exact tie.
        assert results["adaptive transparent"] == static, app
        stride = results["adaptive stride"]
        assert stride.policy_stats["coverage"] > 0.9, app
        assert stride.policy_stats["pred_hit_rate"] > 0.5, app
    # The stride arm's headline win: the sequential-heavy compile
    # workload gains measurably at 1/2 memory.
    m3 = out["modula3"]["results"]
    gain = m3["adaptive stride"].improvement_vs(m3["pipelined static"])
    assert gain > 0.02, f"stride arm gained only {gain:.1%} on modula3"


def hit_trace():
    """Hit-dominated workload; keep in sync with
    ``tools/bench_throughput.py``."""
    import numpy as np

    from repro.trace.compress import compress_references

    rng = np.random.default_rng(7)
    visits = rng.integers(0, 400, size=60_000)
    starts = rng.integers(0, 112, size=60_000)
    blocks = (starts[:, None] + np.arange(16)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    refs = np.repeat(addrs, 4) + np.tile(
        np.arange(4, dtype=np.int64) * 8, addrs.size
    )
    return compress_references(refs, name="hitstream")


def test_history_tracking_overhead(benchmark):
    """History tracking must cost <5% on the hit-dominated cell.

    Same bar as the obs-layer guard
    (``test_disabled_instrumentation_overhead``), same cell as
    ``tools/bench_throughput.py``'s policy gate.  The gated arm is
    transparent adaptive: plans are bit-identical to plain pipelining,
    but every fault-path event still flows through ``observe`` into the
    predictor's :class:`~repro.policy.history.AccessHistory` — so the
    wall-clock delta is exactly what per-page history tracking costs
    when it buys nothing, the analogue of the obs guard's no-op
    instrument.

    The third arm additionally runs the prediction scoreboard (static +
    ``switch_schemes=True``: full confidence means the switch never
    fires and the schedule stays identical, but hits/waste accounting
    is live).  That is opted-in observability, like an *enabled*
    instrument, so it only gets a loose backstop bound.
    """
    trace = hit_trace()

    def cell(scheme, kwargs):
        return SimulationConfig(
            memory_pages=512,
            scheme=scheme,
            scheme_kwargs=kwargs,
            subpage_bytes=SUBPAGE,
            track_distances=False,
            record_faults=False,
        )

    arms = [
        cell("pipelined", {}),
        cell("adaptive", {"predictor": "static"}),
        cell("adaptive", {"predictor": "static", "switch_schemes": True}),
    ]

    def measure(rounds=7):
        # Interleaved min-of-rounds: each round times every arm once,
        # so clock drift and cache warmth land on all arms equally.
        # GC stays off inside the timed region — under pytest the heap
        # is large and a collection triggered by one arm's allocations
        # would bill that arm for walking the test session's objects.
        import gc

        best = [float("inf")] * len(arms)
        for arm in arms:  # warm trace columns + code paths
            simulate(trace, arm)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                for i, arm in enumerate(arms):
                    start = time.perf_counter()
                    simulate(trace, arm)
                    best[i] = min(best[i], time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        return tuple(best)

    baseline_s, transparent_s, tracked_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    # Validity: the tracked arm really did the same simulated work.
    tracked = simulate(trace, arms[2])
    baseline = simulate(trace, arms[0])
    assert tracked.total_ms == baseline.total_ms
    assert tracked.policy_stats["faults"] > 0

    history_overhead = transparent_s / baseline_s - 1.0
    scored_overhead = tracked_s / baseline_s - 1.0
    print(
        f"\n  baseline {baseline_s * 1e3:.1f} ms, history tracking "
        f"+{history_overhead:.1%}, scoreboard +{scored_overhead:.1%}"
    )
    assert history_overhead < 0.05, (
        f"history tracking cost {history_overhead:.1%} on the "
        "hit-dominated cell"
    )
    # Backstop only: the scoreboard is opted-in accounting, but a
    # pathological regression (e.g. per-hit work) should still fail.
    assert scored_overhead < 0.20, (
        f"prediction scoreboard cost {scored_overhead:.1%}"
    )
