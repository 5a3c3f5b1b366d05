"""Figure AX (extension): adaptive fetch policy vs static pipelining.

Not a figure from the paper — an extension built on its Section 4.3
observation that the pipelined transfer order is a *prediction* of the
access order.  The static scheme hard-codes the +1/-1 neighbor guess;
the adaptive scheme (:mod:`repro.policy`) learns each page's stride
online and reorders/deepens the pipeline when confident.  This
experiment compares the two across all five applications under memory
pressure (1/2 and 1/4 memory, 1K subpages) and reports the predictor's
scoreboard alongside the runtime delta.

The expectation encoded in ``tests/test_ablations.py::TestAdaptivePolicy``
(modula3 and ld, 1/2 memory): the transparent arm ties plain pipelining
exactly, the stride predictor covers and predicts most faults, and the
sequential-heavy Modula-3 compile (dominated by stride-8 source scans)
gains measurably.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table, percent
from repro.experiments import common
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


def _spec(app: str, fraction: float, scheme_kwargs: dict) -> dict:
    return {
        "app": app,
        "memory_fraction": fraction,
        "scheme": "adaptive",
        "scheme_kwargs": dict(scheme_kwargs),
        "subpage_bytes": SUBPAGE_BYTES,
    }


def grid_specs() -> list[dict]:
    """Both arms of every (app, memory) cell as :func:`common.warm_runs`
    specs."""
    return [
        _spec(app, fraction, kwargs)
        for app in classic_app_names()
        for fraction in MEMORY_LABELS.values()
        for kwargs in (STATIC_KWARGS, ADAPTIVE_KWARGS)
    ]


def run() -> FigAXResult:
    # One batch for the whole grid, read back in grid_specs' order.
    results = iter(common.warm_runs(grid_specs()))
    rows = []
    for app in classic_app_names():
        for memory in MEMORY_LABELS:
            static, adaptive = next(results), next(results)
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
