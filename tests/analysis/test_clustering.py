"""Fault clustering curves and burstiness metrics."""

import numpy as np
import pytest

from repro.analysis.clustering import (
    ClusteringCurve,
    burstiness_index,
    clustering_curve,
    fraction_in_bursts,
)
from repro.core.fault import FaultKind, FaultLog, FaultRecord
from repro.errors import ConfigError
from repro.sim.results import SimulationResult


def result_with_times(times) -> SimulationResult:
    records = [
        FaultRecord(page=i, subpage=0, kind=FaultKind.REMOTE,
                    time_ms=t, sp_latency_ms=0.5)
        for i, t in enumerate(times)
    ]
    return SimulationResult(
        trace_name="t", scheme_label="x", scheme_name="eager",
        subpage_bytes=1024, page_bytes=8192, memory_pages=4,
        backing="remote", num_references=10, num_runs=5,
        event_cost_ms=1e-3, faults=FaultLog.from_records(records),
    )


class TestCurve:
    def test_cumulative(self):
        curve = clustering_curve(result_with_times([3.0, 1.0, 2.0]))
        times, counts = curve.cumulative()
        assert list(times) == [1.0, 2.0, 3.0]
        assert list(counts) == [1, 2, 3]

    def test_duration(self):
        curve = clustering_curve(result_with_times([1.0, 5.0]))
        assert curve.duration_ms == 5.0

    def test_empty(self):
        curve = clustering_curve(result_with_times([]))
        assert curve.num_faults == 0
        assert curve.duration_ms == 0.0
        assert curve.sample() == []
        assert burstiness_index(curve) == 0.0

    def test_gaps(self):
        curve = clustering_curve(result_with_times([0.0, 1.0, 4.0]))
        assert list(curve.gaps_ms()) == [1.0, 3.0]

    def test_sample_monotone(self):
        curve = clustering_curve(
            result_with_times(np.linspace(0, 100, 200))
        )
        samples = curve.sample(points=10)
        counts = [c for _, c in samples]
        assert counts == sorted(counts)


class TestBurstMetrics:
    def test_uniform_arrivals_not_bursty(self):
        curve = ClusteringCurve("u", np.arange(0.0, 100.0, 2.0))
        assert burstiness_index(curve) == pytest.approx(0.0, abs=1e-9)
        assert fraction_in_bursts(curve, gap_threshold_ms=1.0) == 0.0

    def test_clustered_arrivals_bursty(self):
        # Ten bursts of 10 faults (0.1 ms apart) separated by 50 ms.
        times = []
        t = 0.0
        for _ in range(10):
            for _ in range(10):
                times.append(t)
                t += 0.1
            t += 50.0
        curve = ClusteringCurve("b", np.array(times))
        assert burstiness_index(curve) > 2.0
        assert fraction_in_bursts(curve, gap_threshold_ms=1.0) == (
            pytest.approx(90 / 99, abs=0.01)
        )

    def test_threshold_validation(self):
        curve = ClusteringCurve("x", np.array([0.0, 1.0]))
        with pytest.raises(ConfigError):
            fraction_in_bursts(curve, gap_threshold_ms=0.0)
