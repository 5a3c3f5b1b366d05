"""Waiting-time curves (Figure 5 machinery)."""

import numpy as np
import pytest

from repro.analysis.waiting import WaitingCurve, waiting_curve
from repro.core.fault import FaultKind, FaultLog, FaultRecord
from repro.sim.results import SimulationResult


def record(wait_after: float, sp: float = 0.5) -> FaultRecord:
    rec = FaultRecord(page=0, subpage=0, kind=FaultKind.REMOTE,
                      time_ms=0.0, sp_latency_ms=sp)
    if wait_after > 0:
        rec.add_page_wait(1.0, 1.0 + wait_after)
    return rec


def result_with(records) -> SimulationResult:
    return SimulationResult(
        trace_name="t", scheme_label="sp_1024", scheme_name="eager",
        subpage_bytes=1024, page_bytes=8192, memory_pages=4,
        backing="remote", num_references=10, num_runs=5,
        event_cost_ms=1e-3, faults=FaultLog.from_records(records),
    )


class TestCurveShape:
    def test_sorted_descending(self):
        res = result_with([record(0.0), record(0.9), record(0.3)])
        curve = waiting_curve(res, 0.5, 1.5)
        assert list(curve.waits_ms) == sorted(
            curve.waits_ms, reverse=True
        )

    def test_intercepts(self):
        res = result_with([record(0.0), record(1.0)])
        curve = waiting_curve(res, 0.5, 1.5)
        assert curve.right_intercept_ms == pytest.approx(0.5)
        assert curve.left_intercept_ms == pytest.approx(1.5)

    def test_empty(self):
        curve = waiting_curve(result_with([]), 0.5, 1.5)
        assert curve.num_faults == 0
        assert curve.left_intercept_ms == 0.0
        assert curve.segments().total_faults == 0

    def test_sample(self):
        res = result_with([record(i / 10) for i in range(20)])
        curve = waiting_curve(res, 0.5, 1.5)
        samples = curve.sample(points=5)
        assert len(samples) == 5
        assert samples[0][0] == 0
        assert samples[-1][0] == 19


class TestSegments:
    def test_three_sections(self):
        # 3 best-case (wait = sp only), 2 worst (wait ~ fullpage), 1 mid.
        records = [record(0.0)] * 3 + [record(1.0)] * 2 + [record(0.45)]
        curve = waiting_curve(result_with(records), 0.5, 1.5)
        seg = curve.segments()
        assert seg.best_case_faults == 3
        assert seg.worst_case_faults == 2
        assert seg.middle_faults == 1
        assert seg.best_case_fraction == pytest.approx(0.5)
        assert seg.worst_case_fraction == pytest.approx(2 / 6)

    def test_tolerance_widens_plateaus(self):
        records = [record(0.2)]
        curve = waiting_curve(result_with(records), 0.5, 1.5)
        assert curve.segments(tolerance=0.01).best_case_faults == 0
        assert curve.segments(tolerance=0.2).best_case_faults == 1


class TestFigure5EndToEnd:
    """The waiting-time extraction against a hand-computed run.

    Conftest fixed latencies, congestion off: page 0 faults at t=0
    (subpage latency 0.5), then blocks for subpage 1 from 0.505 until
    the rest of the page lands at 1.5 — waiting 0.5 + 0.995 = 1.495 ms,
    the worst-case plateau.  Page 1 faults once and never waits again —
    waiting 0.5 ms, the best-case plateau.
    """

    def run(self, base_config):
        from repro.sim.simulator import simulate

        from tests.conftest import make_trace, page_addr

        addrs = (
            [page_addr(0)] * 5 + [page_addr(0, 1024)] + [page_addr(1)] * 3
        )
        return simulate(make_trace(addrs), base_config)

    def test_hand_computed_waits(self, base_config):
        res = self.run(base_config)
        assert list(res.waiting_times_ms()) == [
            pytest.approx(1.495), pytest.approx(0.5),
        ]
        curve = waiting_curve(res, 0.5, 1.5)
        assert curve.num_faults == 2
        assert curve.left_intercept_ms == pytest.approx(1.495)
        assert curve.right_intercept_ms == pytest.approx(0.5)

    def test_segment_classification(self, base_config):
        curve = waiting_curve(self.run(base_config), 0.5, 1.5)
        seg = curve.segments()
        assert (seg.best_case_faults, seg.middle_faults,
                seg.worst_case_faults) == (1, 0, 1)
        assert seg.best_case_fraction == pytest.approx(0.5)


class TestOnRealRun:
    def test_modula3_curve_has_best_case_plateau(self):
        # "It is ... surprising that for all subpage sizes, a large
        # fraction of the page faults achieve best-case overlap" (4.2).
        from repro.experiments import common
        from repro.net.latency import CalibratedLatencyModel

        res = common.run_cached("modula3", 0.5, scheme="eager",
                                subpage_bytes=1024)
        model = CalibratedLatencyModel()
        curve = waiting_curve(
            res, model.subpage_latency_ms(1024),
            model.fullpage_latency_ms(),
        )
        seg = curve.segments()
        assert seg.best_case_fraction > 0.3
        assert seg.worst_case_faults > 0
