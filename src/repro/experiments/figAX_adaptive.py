"""Figure AX (extension): adaptive fetch policy vs static pipelining.

Not a figure from the paper — an extension built on its Section 4.3
observation that the pipelined transfer order is a *prediction* of the
access order.  The static scheme hard-codes the +1/-1 neighbor guess;
the adaptive scheme (:mod:`repro.policy`) learns each page's stride
online and reorders/deepens the pipeline when confident.  This
experiment compares the two across all five applications under memory
pressure (1/2 and 1/4 memory, 1K subpages) and reports the predictor's
scoreboard alongside the runtime delta.

The expectation encoded in ``bench_abl_adaptive_policy.py``: the
sequential-heavy applications (Modula-3 compiles are dominated by
stride-8 source scans) gain measurably at 1/2 memory, and no
application collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table, percent
from repro.experiments import common
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.parallel import SweepJob, TraceRef, run_cells
from repro.trace.synth.apps import classic_app_names

SUBPAGE_BYTES = 1024

#: Memory configurations under pressure (full-mem barely faults, so the
#: policy has nothing to predict there).
MEMORY_LABELS: dict[str, float] = {"1/2-mem": 0.5, "1/4-mem": 0.25}

#: The static arm: the adaptive scheme in transparent mode — provably
#: bit-identical to ``SubpagePipelining`` (the CI policy-smoke job and
#: ``tests/sim/test_adaptive_equivalence.py`` both hold it to that).
STATIC_KWARGS: dict = {"predictor": "static"}

#: The adaptive arm: stride-majority prediction, pipeline deepened to 6
#: messages at full confidence.
ADAPTIVE_KWARGS: dict = {"predictor": "stride", "max_depth": 6}


@dataclass(frozen=True, slots=True)
class FigAXRow:
    app: str
    memory: str
    static_ms: float
    adaptive_ms: float
    improvement: float
    pred_hit_rate: float
    coverage: float
    wasted_prefetch_kb: float
    lazy_fallbacks: int


@dataclass(frozen=True, slots=True)
class FigAXResult:
    rows: list[FigAXRow]

    def row(self, app: str, memory: str) -> FigAXRow:
        for r in self.rows:
            if r.app == app and r.memory == memory:
                return r
        raise KeyError((app, memory))

    @property
    def best_improvement(self) -> float:
        return max(r.improvement for r in self.rows)


def _config(trace_pages: int, scheme_kwargs: dict) -> SimulationConfig:
    return SimulationConfig(
        memory_pages=trace_pages,
        scheme="adaptive",
        scheme_kwargs=dict(scheme_kwargs),
        subpage_bytes=SUBPAGE_BYTES,
        # The per-fault raw material is not used here; keep the cells
        # lean.
        record_faults=False,
        track_distances=False,
    )


def run() -> FigAXResult:
    # Both arms of every (app, memory) cell in one parallel batch; cells
    # bypass common.run_cached because its flattened signature cannot
    # name predictor arguments.
    options = common.execution_options()
    jobs: list[SweepJob] = []
    for app in classic_app_names():
        trace = common.get_trace(app)
        for memory, fraction in MEMORY_LABELS.items():
            pages = memory_pages_for(trace, fraction)
            for arm, kwargs in (
                ("static", STATIC_KWARGS),
                ("adaptive", ADAPTIVE_KWARGS),
            ):
                jobs.append(SweepJob(
                    key=(app, memory, arm),
                    trace=TraceRef(app, seed=common.TRACE_SEED),
                    config=_config(pages, kwargs),
                ))
    results = run_cells(
        jobs,
        workers=options.workers,
        cache=options.cache,
        progress=options.progress,
        pool=options.pool,
    )

    rows = []
    for app in classic_app_names():
        for memory in MEMORY_LABELS:
            static = results[(app, memory, "static")]
            adaptive = results[(app, memory, "adaptive")]
            stats = adaptive.policy_stats
            rows.append(FigAXRow(
                app=app,
                memory=memory,
                static_ms=static.total_ms,
                adaptive_ms=adaptive.total_ms,
                improvement=adaptive.improvement_vs(static),
                pred_hit_rate=stats.get("pred_hit_rate", 0.0),
                coverage=stats.get("coverage", 0.0),
                wasted_prefetch_kb=stats.get("wasted_prefetch_bytes", 0.0)
                / 1024.0,
                lazy_fallbacks=int(stats.get("lazy_fallbacks", 0.0)),
            ))
    return FigAXResult(rows=rows)


def render(result: FigAXResult) -> str:
    rows = [
        (
            r.app,
            r.memory,
            f"{r.static_ms:.0f}",
            f"{r.adaptive_ms:.0f}",
            percent(r.improvement),
            percent(r.pred_hit_rate, 0),
            f"{r.wasted_prefetch_kb:.0f}",
        )
        for r in result.rows
    ]
    table = format_table(
        ["app", "memory", "static ms", "adaptive ms", "cut",
         "pred hits", "wasted KB"],
        rows,
        title=(
            "Figure AX (extension): static pipelining vs adaptive "
            "stride policy, 1K subpages"
        ),
    )
    notes = [
        "",
        f"best adaptive cut: {percent(result.best_improvement)}",
    ]
    return table + "\n".join(notes)
