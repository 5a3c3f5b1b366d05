"""I/O vs computational overlap attribution."""

import pytest

from repro.analysis.overlap import (
    OverlapAttribution,
    _interval_overlap_ms,
    attribute_overlap,
)
from repro.core.fault import FaultKind, FaultLog, FaultRecord
from repro.sim.results import SimulationResult

import numpy as np


def make_result(records) -> SimulationResult:
    """A result whose stall intervals derive from ``records``."""
    return SimulationResult(
        trace_name="t", scheme_label="sp_1024", scheme_name="eager",
        subpage_bytes=1024, page_bytes=8192, memory_pages=4,
        backing="remote", num_references=10, num_runs=5,
        event_cost_ms=1e-3, faults=FaultLog.from_records(records),
    )


def remote(time, sp, window, page=0):
    rec = FaultRecord(page=page, subpage=0, kind=FaultKind.REMOTE,
                      time_ms=time, sp_latency_ms=sp,
                      window_start_ms=window[0], window_end_ms=window[1])
    return rec


def other_fault(start, end):
    """Another page's fullpage fault: one stall, no in-flight window."""
    return remote(start, end - start, (end, end), page=1)


class TestIntervalOverlap:
    def setup_method(self):
        self.starts = np.array([0.0, 2.0, 5.0])
        self.ends = np.array([1.0, 3.0, 7.0])
        self.cum = np.concatenate([[0.0],
                                   np.cumsum(self.ends - self.starts)])

    def overlap(self, lo, hi):
        return _interval_overlap_ms(self.starts, self.ends, self.cum,
                                    lo, hi)

    def test_full_containment(self):
        assert self.overlap(-1.0, 10.0) == pytest.approx(4.0)

    def test_partial_clip(self):
        assert self.overlap(0.5, 2.5) == pytest.approx(1.0)

    def test_no_overlap(self):
        assert self.overlap(3.5, 4.5) == 0.0

    def test_inside_one_interval(self):
        assert self.overlap(5.5, 6.0) == pytest.approx(0.5)

    def test_degenerate_window(self):
        assert self.overlap(2.0, 2.0) == 0.0


class TestAttribution:
    def test_pure_computation_overlap(self):
        # One fault; nothing stalls during its window -> all comp.
        rec = remote(0.0, 0.5, (0.5, 1.5))
        res = make_result([rec])
        assert res.stall_intervals == [(0.0, 0.5)]
        att = attribute_overlap(res)
        assert att.comp_overlap_ms == pytest.approx(1.0)
        assert att.io_overlap_ms == 0.0
        assert att.io_share == 0.0

    def test_pure_io_overlap(self):
        # A second fault's stall fully covers the first one's window.
        rec1 = remote(0.0, 0.5, (0.5, 1.5))
        res = make_result([rec1, other_fault(0.5, 1.5)])
        assert res.stall_intervals == [(0.0, 0.5), (0.5, 1.5)]
        att = attribute_overlap(res)
        assert att.io_overlap_ms == pytest.approx(1.0)
        assert att.io_share == pytest.approx(1.0)

    def test_own_wait_not_counted_as_io(self):
        rec = remote(0.0, 0.5, (0.5, 1.5))
        rec.add_page_wait(1.0, 1.5)
        res = make_result([rec])
        # The page wait is a stall too.
        assert res.stall_intervals == [(0.0, 0.5), (1.0, 1.5)]
        att = attribute_overlap(res)
        assert att.own_wait_ms == pytest.approx(0.5)
        assert att.io_overlap_ms == 0.0
        assert att.comp_overlap_ms == pytest.approx(0.5)
        assert att.hidden_ms == pytest.approx(0.5)

    def test_disk_faults_ignored(self):
        rec = FaultRecord(page=0, subpage=0, kind=FaultKind.DISK,
                          time_ms=0.0, sp_latency_ms=8.0,
                          window_start_ms=8.0, window_end_ms=8.0)
        res = make_result([rec])
        assert res.stall_intervals == [(0.0, 8.0)]
        att = attribute_overlap(res)
        assert att.num_windows == 0

    def test_total_window_decomposition(self):
        rec = remote(0.0, 0.5, (0.5, 1.5))
        rec.add_page_wait(1.2, 1.5)
        res = make_result([rec, other_fault(0.6, 0.8)])
        assert res.stall_intervals == [(0.0, 0.5), (0.6, 0.8), (1.2, 1.5)]
        att = attribute_overlap(res)
        assert att.total_window_ms == pytest.approx(1.0)
        assert att.io_overlap_ms == pytest.approx(0.2)
        assert att.own_wait_ms == pytest.approx(0.3)
        assert att.comp_overlap_ms == pytest.approx(0.5)

    def test_io_share_bounds_on_real_run(self):
        from repro.experiments import common

        res = common.run_cached("modula3", 0.5, scheme="eager",
                                subpage_bytes=1024)
        att = attribute_overlap(res)
        assert 0.0 <= att.io_share <= 1.0
        assert att.num_windows > 0


class TestOverlappedFaultsEndToEnd:
    """Overlapped-fault attribution on a hand-computed simulator run.

    With the fixed latency model (conftest) and congestion on, page 0's
    eager rest-of-page transfer occupies the wire until 1.25 ms; page
    1's fault at 0.505 ms therefore finds the link busy and is counted
    as overlapping another transfer.
    """

    def run(self, base_config):
        from repro.sim.simulator import simulate

        from tests.conftest import make_trace, page_addr

        addrs = [page_addr(0)] * 5 + [page_addr(1)] * 5
        config = base_config.with_overrides(congestion=True)
        return simulate(make_trace(addrs), config)

    def test_overlap_flags_and_count(self, base_config):
        res = self.run(base_config)
        assert res.remote_faults == 2
        assert res.overlapped_faults == 1
        assert [r.overlapped_another for r in res.fault_records] == [
            False, True,
        ]

    def test_attribution_matches_hand_computation(self, base_config):
        res = self.run(base_config)
        att = attribute_overlap(res)
        assert att.num_windows == 2
        # Page 0's window is (0.5, 1.5) clipped to the run end at 1.01;
        # page 1's fault stalls (0.505, 1.005) inside it -> 0.5 ms of
        # I/O overlap, and the remaining 0.01 + page 1's clipped 0.005
        # window are computation.
        assert att.io_overlap_ms == pytest.approx(0.5)
        assert att.comp_overlap_ms == pytest.approx(0.015)
        assert att.own_wait_ms == 0.0
        assert att.io_share == pytest.approx(0.5 / 0.515)
