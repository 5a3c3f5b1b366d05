"""Tests of the benchmark itself: ``python -m pytest bench/tests``."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time

import pytest

import compare
import tracer as tracing
import workloads
from conftest import ROOT
from repro.experiments import common
from repro.sim.parallel import ExecutionOptions


@pytest.fixture
def experiment_cache():
    """A clean experiment run cache under default execution options."""
    common.set_execution_options(ExecutionOptions())
    common.clear_run_cache()
    yield common
    common.clear_run_cache()
    common.set_execution_options(None)


@pytest.mark.parametrize("make", [workloads.zoo, workloads.memsizes])
def test_seed0_cells_equal_experiment_runs(make, tmp_path, experiment_cache):
    # zoo's quick subset is two apps (gdb, websess); memsizes' is its
    # full-mem row.  Both must be the experiment module's exact cells.
    workload = make(0, tmp_path, quick=True)
    workload.setup()
    ours = workload.results()
    experiment_cache.warm_runs(workload.specs)
    theirs = [experiment_cache.run_cached(**spec) for spec in workload.specs]
    assert len(ours) == len(workload.specs) > 0
    assert ours == theirs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_second_pass_repeats_first(name, tmp_path):
    workload = workloads.make(name, 0, tmp_path, ROOT, quick=True)
    try:
        workload.setup()
        first, second = workload.run_pass(), workload.run_pass()
    finally:
        workload.close()
    assert len(first.cells) == len(second.cells) > 0
    assert first.attempted == second.attempted
    assert first.digest == second.digest
    assert first.failed == second.failed == 0


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):          # 0 .. 10
        with tracer.span("a"):          # 1 .. 4
            with tracer.span("leaf", keep=False):   # 2 .. 3
                pass
        with tracer.span("b"):          # 5 .. 9
            pass
    totals = tracer.totals()
    assert totals["outer"] == (1, 10.0, 3.0)
    assert totals["a"] == (1, 3.0, 2.0)
    assert totals["leaf"] == (1, 1.0, 1.0)
    assert totals["b"] == (1, 4.0, 4.0)
    spans = {s[1]: s for s in tracer.spans()}
    assert set(spans) == {"outer", "a", "b"}  # "leaf" is aggregated only
    assert spans["a"][4] == spans["b"][4] == spans["outer"][0]
    assert spans["outer"][4] is None


def test_wrappers_restored_by_identity(tmp_path):
    tracer = tracing.Tracer()
    patches, mix = tracing.install(tracer)
    applied = list(patches.applied)
    try:
        with tracer.gc:
            workload = workloads.make("tenants", 0, tmp_path, ROOT, quick=True)
            workload.setup()
            workload.run_pass(tracer)
            grid = workloads.make("memsizes", 0, tmp_path, ROOT, quick=True)
            grid.setup()
            grid.run_pass(tracer)
    finally:
        patches.restore()
    patched = {(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in applied}
    assert ("Simulator", "_page_fault") in patched
    assert ("repro.sim.parallel", "simulate") in patched
    for owner, attr, original in applied:
        assert vars(owner)[attr] is original, (owner, attr)
    assert tracer.gc not in gc.callbacks
    assert tracer.gc.full_collections > 0
    totals = tracer.totals()
    assert totals["fault.page_fault"][0] > 0
    assert totals["cluster"][0] > 0
    assert mix.counts["cells_reference"] == len(grid.specs)


def _runs(values, digest="d"):
    return [{"zoo": {"digest": digest, "correct": True, "metrics": {
        "wall_s": {"value": v, "q1": v, "q3": v, "n": 1},
    }}} for v in values]


SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
], "per_layer": []}


@pytest.mark.parametrize("parent, change, expected", [
    ([10 + 0.01 * i for i in range(10)], [8 + 0.01 * i for i in range(10)],
     "improved"),
    ([10 + 0.01 * i for i in range(10)], [12 + 0.01 * i for i in range(10)],
     "regressed"),
    ([10 + 0.01 * i for i in range(10)],
     [10.1 + 0.01 * i for i in range(10)], "ok"),
    ([10, 14] * 5, [11, 15] * 5, "unresolved"),
    ([10, 14] * 5, [5, 6] * 5, "improved"),
])
def test_compare_classifies(parent, change, expected):
    rows, flags = compare.compare(_runs(parent), _runs(change), SPEC)
    assert [r["verdict"] for r in rows] == [expected]
    assert flags == []


def test_compare_higher_is_better_and_digest_flag():
    spec = {"end_to_end": [dict(SPEC["end_to_end"][0], better="higher")],
            "per_layer": []}
    rows, flags = compare.compare(
        _runs([100.0] * 10), _runs([80.0] * 10, digest="other"), spec
    )
    assert rows[0]["verdict"] == "regressed"
    assert rows[0]["wins"] == 0
    assert any("digest differs" in f for f in flags)


def test_quick_smoke_finishes_in_30s(tmp_path):
    out, trace = tmp_path / "results.json", tmp_path / "trace.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--out", str(out),
         "--trace-out", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30, f"quick smoke took {elapsed:.1f}s"
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == set(workloads.WORKLOADS)
    for entry in results["workloads"].values():
        assert entry["correct"] and entry["failed_frac"] == 0
        assert entry["layers"]["trace.overhead_frac"]["value"] != 0
    names = {
        e["args"]["name"] for e in json.loads(trace.read_text())["traceEvents"]
        if e.get("name") == "process_name"
    }
    assert names == set(workloads.WORKLOADS)
