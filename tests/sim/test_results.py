"""Result containers and derived metrics."""

import pytest

from repro.core.fault import FaultKind, FaultLog, FaultRecord
from repro.sim.results import SimulationResult, TimeComponents


def result(**kwargs) -> SimulationResult:
    base = dict(
        trace_name="t",
        scheme_label="sp_1024",
        scheme_name="eager",
        subpage_bytes=1024,
        page_bytes=8192,
        memory_pages=10,
        backing="remote",
        num_references=1000,
        num_runs=100,
        event_cost_ms=1e-3,
    )
    base.update(kwargs)
    return SimulationResult(**base)


class TestTimeComponents:
    def test_total(self):
        c = TimeComponents(exec_ms=10, sp_latency_ms=5, page_wait_ms=3,
                           cpu_overhead_ms=1, emulation_ms=0.5,
                           tlb_miss_ms=0.5)
        assert c.total_ms == pytest.approx(20)

    def test_fractions_sum_to_one(self):
        c = TimeComponents(exec_ms=10, sp_latency_ms=10)
        fractions = c.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["exec_ms"] == pytest.approx(0.5)

    def test_fractions_of_zero(self):
        assert all(v == 0.0 for v in TimeComponents().fractions().values())

    def test_as_dict_keys(self):
        assert set(TimeComponents().as_dict()) == {
            "exec_ms", "sp_latency_ms", "page_wait_ms",
            "cpu_overhead_ms", "emulation_ms", "tlb_miss_ms",
        }


class TestDerivedMetrics:
    def test_speedup_and_improvement(self):
        fast = result(components=TimeComponents(exec_ms=50))
        slow = result(components=TimeComponents(exec_ms=100))
        assert fast.speedup_vs(slow) == pytest.approx(2.0)
        assert fast.improvement_vs(slow) == pytest.approx(0.5)

    def test_fault_counts(self):
        r = result(remote_faults=5, disk_faults=2, subpage_faults=3)
        assert r.page_faults == 7
        assert r.total_faults == 10

    def test_fault_views(self):
        records = [
            FaultRecord(page=1, subpage=0, kind=FaultKind.REMOTE,
                        time_ms=2.0, sp_latency_ms=0.5),
            FaultRecord(page=2, subpage=0, kind=FaultKind.DISK,
                        time_ms=1.0, sp_latency_ms=8.0),
        ]
        r = result(faults=FaultLog.from_records(records))
        assert list(r.fault_times_ms()) == [2.0, 1.0]
        assert list(r.waiting_times_ms()) == [0.5, 8.0]
        assert len(r.records_of_kind(FaultKind.DISK)) == 1

    def test_summary_is_jsonable(self):
        import json

        summary = result().summary()
        assert json.loads(json.dumps(summary)) == summary

    def test_summary_covers_eviction_and_link_accounting(self):
        # Regression: dirty_evictions, cancelled_transfers, and the
        # link stats used to be dropped from the summary.
        r = result(
            evictions=10, dirty_evictions=4, cancelled_transfers=2,
            overlapped_faults=3,
            link_stats={"demand_transfers": 9, "queueing_delay_ms": 1.5},
        )
        summary = r.summary()
        assert summary["evictions"] == 10
        assert summary["dirty_evictions"] == 4
        assert summary["cancelled_transfers"] == 2
        assert summary["overlapped_faults"] == 3
        assert summary["link_stats"] == {
            "demand_transfers": 9, "queueing_delay_ms": 1.5,
        }
        # The summary owns a copy, not the live stats dict.
        summary["link_stats"]["demand_transfers"] = 0
        assert r.link_stats["demand_transfers"] == 9


class TestFaultRecord:
    def test_page_wait_accumulation(self):
        record = FaultRecord(page=1, subpage=0, kind=FaultKind.REMOTE,
                             time_ms=0.0, sp_latency_ms=0.5)
        record.add_page_wait(1.0, 1.4)
        record.add_page_wait(2.0, 2.1)
        assert record.page_wait_ms == pytest.approx(0.5)
        assert record.waiting_ms == pytest.approx(1.0)

    def test_zero_length_wait_ignored(self):
        record = FaultRecord(page=1, subpage=0, kind=FaultKind.REMOTE,
                             time_ms=0.0, sp_latency_ms=0.5)
        record.add_page_wait(1.0, 1.0)
        assert record.page_wait_intervals == []

    def test_window(self):
        record = FaultRecord(page=1, subpage=0, kind=FaultKind.REMOTE,
                             time_ms=0.0, sp_latency_ms=0.5,
                             window_start_ms=0.5, window_end_ms=1.5)
        assert record.window_ms == pytest.approx(1.0)
