"""Sweep helpers on a small synthetic workload."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.sweep import (
    SweepResult,
    run_memory_sweep,
    run_subpage_sweep,
)
from repro.trace.compress import compress_references

from tests.conftest import FixedLatencyModel


@pytest.fixture(scope="module")
def small_trace():
    rng = np.random.default_rng(0)
    pages = rng.integers(0, 24, size=4000)
    offsets = rng.integers(0, 1024, size=4000) * 8
    return compress_references(pages * 8192 + offsets, name="small")


@pytest.fixture()
def cfg():
    return {
        "latency_model": FixedLatencyModel(),
        "event_ns": 1000.0,
        "use_trace_dilation": False,
    }


class TestSweepResult:
    def test_add_and_get(self):
        sweep = SweepResult()
        sentinel = object()
        sweep.add("r", "c", sentinel)
        assert sweep.get("r", "c") is sentinel
        assert sweep.rows == ["r"]
        assert sweep.columns == ["c"]

    def test_missing_cell(self):
        with pytest.raises(ConfigError):
            SweepResult().get("r", "c")


class TestSubpageSweep:
    def test_grid_shape(self, small_trace, cfg):
        sweep = run_subpage_sweep(
            small_trace,
            cfg,
            subpage_sizes=[1024, 4096],
            memory_fractions={"full": 1.0, "half": 0.5},
        )
        assert sweep.rows == ["full", "half"]
        assert sweep.columns == ["disk_8192", "p_8192", "sp_4096",
                                 "sp_1024"]
        assert len(sweep.results) == 8

    def test_disk_is_slowest(self, small_trace, cfg):
        sweep = run_subpage_sweep(
            small_trace, cfg, [1024], {"half": 0.5}
        )
        totals = sweep.totals_ms()
        assert totals[("half", "disk_8192")] > totals[("half", "p_8192")]

    def test_baselines_optional(self, small_trace, cfg):
        sweep = run_subpage_sweep(
            small_trace, cfg, [1024], {"half": 0.5},
            include_baselines=False,
        )
        assert sweep.columns == ["sp_1024"]


class TestMemorySweep:
    def test_pressure_increases_runtime(self, small_trace, cfg):
        out = run_memory_sweep(
            small_trace, cfg, {"full": 1.0, "quarter": 0.25}
        )
        assert out["quarter"].total_ms > out["full"].total_ms
        assert out["quarter"].memory_pages < out["full"].memory_pages


class TestDuplicateCells:
    def test_duplicate_cell_rejected(self):
        sweep = SweepResult()
        sweep.add("r", "c", object())
        with pytest.raises(ConfigError, match="already has cell"):
            sweep.add("r", "c", object())

    def test_duplicate_subpage_sizes_fail_loudly(self, small_trace, cfg):
        with pytest.raises(ConfigError):
            run_subpage_sweep(
                small_trace, cfg, [1024, 1024], {"half": 0.5}
            )


class TestParallelSweep:
    def test_workers_match_serial(self, small_trace, cfg):
        serial = run_subpage_sweep(
            small_trace, cfg, [1024, 4096],
            {"full": 1.0, "half": 0.5},
        )
        parallel = run_subpage_sweep(
            small_trace, cfg, [1024, 4096],
            {"full": 1.0, "half": 0.5},
            workers=4,
        )
        assert parallel.rows == serial.rows
        assert parallel.columns == serial.columns
        assert parallel.totals_ms() == serial.totals_ms()

    def test_memory_sweep_workers_match_serial(self, small_trace, cfg):
        serial = run_memory_sweep(
            small_trace, cfg, {"full": 1.0, "quarter": 0.25}
        )
        parallel = run_memory_sweep(
            small_trace, cfg, {"full": 1.0, "quarter": 0.25}, workers=2
        )
        assert {k: r.total_ms for k, r in parallel.items()} == {
            k: r.total_ms for k, r in serial.items()
        }
