"""Subpage (lazy-scheme) faults and the shared-link congestion model.

Regression tests for two historical bugs in ``Simulator._subpage_fault``:

1. follow-on arrivals never registered with the :class:`LinkModel`, so
   they neither queued behind in-flight traffic nor got preempted by
   later demand transfers (and ``background_transfers`` undercounted);
2. the pending schedule was created with ``wire_end_ms`` left at 0.0,
   so ``LinkModel._reap`` dropped it immediately and eviction-time
   accounting saw no in-flight transfer.

The built-in lazy scheme ships no follow-on data, so these paths need a
custom scheme: :class:`LazyPairFetch` fetches the faulted subpage and
ships its successor as a background transfer (arriving at the
rest-of-page latency), on page faults and subpage faults alike.
"""

import pytest

from repro.core.schemes import FetchScheme
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate

from tests.conftest import FixedLatencyModel, make_trace, page_addr


class SlowWireLatency(FixedLatencyModel):
    """The fixed model with an 8x slower wire (1024 bytes = 0.5 ms), so
    transfers stay in flight long enough to collide."""

    def wire_time_ms(self, size_bytes: int) -> float:
        return size_bytes / 2048


class LazyPairFetch(FetchScheme):
    """Lazy fetch plus one follow-on: the next subpage rides behind the
    demand transfer as background traffic."""

    name = "lazypair"

    def planner(self, latency, subpage_bytes, page_bytes):
        s = subpage_bytes
        subpages = page_bytes // s

        def plan(now_ms, page, faulted, block):
            # The follower arrives at the rest-of-page latency, after
            # the program resumes, so it always rides in ``masks``.
            masks = ()
            arrivals = []
            background_wire = 0.0
            if faulted + 1 < subpages:
                masks = (1 << faulted + 1,)
                arrivals = [now_ms + latency.rest_of_page_ms(s)]
                background_wire = latency.wire_time_ms(s)
            return (
                now_ms + latency.subpage_latency_ms(s),
                1 << faulted,
                masks,
                arrivals,
                latency.wire_time_ms(s),
                now_ms + latency.request_fixed_ms,
                background_wire,
                0.0,
            )

        return plan


def lazypair_config(congestion: bool, memory_pages: int = 8,
                    observe: str = "") -> SimulationConfig:
    return SimulationConfig(
        memory_pages=memory_pages,
        scheme=LazyPairFetch(),
        subpage_bytes=1024,
        latency_model=SlowWireLatency(),
        event_ns=1000.0,  # 1 us per reference
        congestion=congestion,
        use_trace_dilation=False,
        observe=observe,
    )


def sp(page: int, subpage: int) -> int:
    return page_addr(page, subpage * 1024)


class TestSubpageFaultUsesLink:
    """Bugfix 1: follow-on arrivals route through the congestion model."""

    TRACE = [sp(0, 0), sp(0, 4), sp(0, 5)]

    def test_background_transfer_is_counted(self):
        result = simulate(make_trace(self.TRACE), lazypair_config(True))
        assert result.remote_faults == 1
        assert result.subpage_faults == 1
        # One background transfer per fault: the page fault's follow-on
        # AND the subpage fault's follow-on.
        assert result.link_stats["demand_transfers"] == 2
        assert result.link_stats["background_transfers"] == 2

    def test_congestion_delays_the_followon(self):
        congested = simulate(make_trace(self.TRACE), lazypair_config(True))
        idle = simulate(make_trace(self.TRACE), lazypair_config(False))

        # Identical fault structure either way.
        assert idle.subpage_faults == congested.subpage_faults == 1
        assert idle.link_stats["background_transfers"] == 0

        # Idle link: the subpage fault at t=0.501 promises subpage 5 at
        # the rest-of-page latency, 2.001; the program touches it at
        # 1.002 and waits out the difference.
        start, end = idle.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.002), pytest.approx(2.001))

        # Congested: the follow-on queues behind the page fault's
        # background transfer and behind its own demand transfer
        # (0.999 ms), landing at 3.0 instead.
        start, end = congested.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.002), pytest.approx(3.0))
        assert congested.link_stats["queueing_delay_ms"] == pytest.approx(
            1.499
        )
        # The subpage fault's demand transfer preempted the page fault's
        # still-in-flight follow-on.
        assert congested.link_stats["preemption_delay_ms"] == (
            pytest.approx(0.5)
        )
        assert congested.total_ms > idle.total_ms


class TestDemandPreemptsSubpageTransfer:
    """Bugfix 2: the schedule carries a real ``wire_end_ms``, so a later
    demand transfer still sees (and shifts) it in flight."""

    TRACE = [sp(0, 0), sp(0, 4), sp(1, 0), sp(0, 5)]

    def test_followon_arrival_is_pushed_back(self):
        result = simulate(make_trace(self.TRACE), lazypair_config(True))
        assert result.remote_faults == 2
        assert result.subpage_faults == 1
        # Page 1's fault finds the wire busy with page 0's traffic.
        assert result.overlapped_faults == 1
        # Without the fix the subpage schedule is reaped immediately
        # (wire_end_ms == 0.0) and subpage 5 would arrive at 3.0; with
        # it, page 1's demand transfer pushes the arrival to 3.5.
        start, end = result.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.503), pytest.approx(3.5))
        # Preempted twice 0.5 ms each: the page-0 merged schedule and
        # the subpage fault's registered schedule.
        assert result.link_stats["preemption_delay_ms"] == pytest.approx(
            1.5
        )


class TestEvictionDuringLazyTransfer:
    """Bugfix 2 (accounting): evicting a page whose lazy follow-on is
    still in flight counts as a cancelled transfer."""

    def test_cancelled_transfer_counted(self):
        trace = make_trace([sp(0, 0), sp(0, 4), sp(1, 0), sp(2, 0)])
        result = simulate(
            trace, lazypair_config(False, memory_pages=2,
                                   observe="metrics"),
        )
        # Page 2's fault evicts page 0 at ~1.503 while its follow-on
        # (subpage 5, due 2.001) is still outstanding.
        assert result.evictions == 1
        assert result.cancelled_transfers == 1
        counters = result.metrics["counters"]
        assert counters["transfers_cancelled"] == 1
        assert counters["evictions"] == 1

    def test_completed_transfer_evicts_cleanly(self):
        # Touching subpage 5 first waits out the transfer and folds the
        # schedule, so the later eviction cancels nothing.
        trace = make_trace(
            [sp(0, 0), sp(0, 4), sp(0, 5), sp(1, 0), sp(2, 0)]
        )
        result = simulate(
            trace, lazypair_config(False, memory_pages=2),
        )
        assert result.evictions == 1
        assert result.cancelled_transfers == 0


class TestMergedScheduleLatest:
    """A subpage fault's follow-on folded into the page's in-flight
    schedule (``_subpage_fault``'s merge branch): the schedule's cached
    latest arrival must move to the merged one.

    Idle link.  Page 0 faults at 0 (subpage 1 due 1.5); subpage 4
    faults at 0.501 and merges subpage 5, due 2.001, into the page's
    schedule; the touch of subpage 1 at 1.002 waits until 1.5.
    """

    PREFIX = [sp(0, 0), sp(0, 4), sp(0, 1)]

    def test_page_folds_at_the_merged_latest(self):
        result = simulate(
            make_trace(self.PREFIX + [sp(0, 5)]), lazypair_config(False)
        )
        assert result.subpage_faults == 1
        # Still incomplete after subpage 1 lands: subpage 5 stalls.
        start, end = result.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.501), pytest.approx(2.001))
        # The fold closes neither window: each fault's window ends at
        # its own last message, the page fault's follower at 1.5 and
        # the subpage fault's at 2.001.
        page_fault, subpage_fault = result.fault_records[:2]
        assert page_fault.window_end_ms == pytest.approx(1.5)
        assert subpage_fault.window_end_ms == end

    def test_eviction_cancels_the_merged_transfer(self):
        # Page 1's fault at 1.501 evicts page 0: subpage 1 has landed,
        # subpage 5 (due 2.001) has not.
        result = simulate(
            make_trace(self.PREFIX + [sp(1, 0)]),
            lazypair_config(False, memory_pages=1),
        )
        assert result.evictions == 1
        assert result.cancelled_transfers == 1


class TestMergeCornerPinned:
    """A subpage fault while the page's follower is still in flight,
    under congestion, pinned exactly.

    ``_subpage_fault`` folds the new follow-on into the page's in-flight
    schedule (its merge branch), three times in this cell: subpages
    (0, 4), (1, 3) and (2, 2) fault while the follower of their page's
    first fault is on the wire.  Two frames, so the cell also evicts
    (one dirty page).  The values were recorded before the frame began
    to carry its own schedule and must stay ``==``, except the window
    ends of the page faults on pages 0 and 1: a merged schedule's fold
    no longer moves them (3.5 -> 2.0 and 5.501 -> 4.0, each its own
    follower's arrival).
    """

    TRACE = [sp(0, 0), sp(0, 4), sp(1, 0), sp(0, 5), sp(1, 3), sp(0, 1),
             sp(2, 6), sp(2, 2), sp(1, 4), sp(0, 0), sp(2, 7)]
    WRITES = [False, True] + [False] * 4 + [True] + [False] * 4

    SUMMARY = {
        "trace": "trace",
        "scheme": "lazypair_1024",
        "subpage_bytes": 1024,
        "memory_pages": 2,
        "backing": "remote",
        "references": 11,
        "total_ms": 7.501999999999998,
        "components": {
            "exec_ms": 0.011,
            "sp_latency_ms": 3.4999999999999996,
            "page_wait_ms": 3.9909999999999983,
            "cpu_overhead_ms": 0.0,
            "emulation_ms": 0.0,
            "tlb_miss_ms": 0.0,
        },
        "remote_faults": 4,
        "disk_faults": 0,
        "subpage_faults": 3,
        "evictions": 2,
        "dirty_evictions": 1,
        "cancelled_transfers": 0,
        "overlapped_faults": 3,
        "link_stats": {
            "demand_transfers": 7,
            "background_transfers": 7,
            "queueing_delay_ms": 7.490999999999998,
            "preemption_delay_ms": 4.0,
        },
        "policy_stats": {},
    }

    #: (page, subpage, kind, time, sp_latency, window start, window end,
    #: page waits, cpu overhead, overlapped) per fault.
    ROWS = [
        (0, 0, "remote", 0.0, 0.5, 0.5, 2.0,
         [(1.5029999999999997, 3.5)], 0.0, False),
        (0, 4, "subpage", 0.501, 0.4999999999999999, 1.001, 3.0,
         [], 0.0, False),
        (1, 0, "remote", 1.0019999999999998, 0.5, 1.5019999999999998,
         4.0, [(5.005000000000001, 5.5009999999999994)],
         0.0, True),
        (1, 3, "subpage", 3.501, 0.49999999999999956, 4.0009999999999994,
         5.5009999999999994, [], 0.0, False),
        (2, 6, "remote", 4.003, 0.5, 4.503, 6.5009999999999994,
         [(6.003, 7.5009999999999994)], 0.0, True),
        (2, 2, "subpage", 4.5040000000000004, 0.5, 5.0040000000000004,
         7.5009999999999994, [], 0.0, False),
        (0, 0, "remote", 5.502, 0.5, 6.002, 7.502, [], 0.0, True),
    ]

    def run(self):
        return simulate(
            make_trace(self.TRACE, self.WRITES),
            lazypair_config(True, memory_pages=2),
        )

    def test_summary_is_pinned(self):
        assert self.run().summary() == self.SUMMARY

    def test_fault_rows_are_pinned(self):
        rows = [
            (r.page, r.subpage, r.kind.value, r.time_ms, r.sp_latency_ms,
             r.window_start_ms, r.window_end_ms, r.page_wait_intervals,
             r.cpu_overhead_ms, r.overlapped_another)
            for r in self.run().fault_records
        ]
        assert rows == self.ROWS
