"""Subpage (lazy-scheme) faults and the shared-link congestion model.

Regression tests for two historical bugs in ``Simulator._subpage_fault``:

1. follow-on arrivals never registered with the :class:`LinkModel`, so
   they neither queued behind in-flight traffic nor got preempted by
   later demand transfers (and ``background_transfers`` undercounted);
2. the pending schedule was created with ``wire_end_ms`` left at 0.0,
   so ``LinkModel._reap`` dropped it immediately and eviction-time
   accounting saw no in-flight transfer.

The built-in lazy scheme ships no follow-on data, so these paths need a
custom scheme: :class:`LazyThenRest` fetches only the faulted subpage
on a page's first fault and ships the rest of the page as a background
transfer (arriving at the rest-of-page latency) on any later fault.

A fault's follow-on must be empty or cover every subpage the page
lacks (:data:`~repro.core.plans.Placement`); :class:`NeighbourOnly`
breaks that, and the simulator refuses it.
"""

import pytest

from repro.core.schemes import FetchScheme
from repro.errors import SchemeError
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate

from tests.conftest import FixedLatencyModel, make_trace, page_addr


class SlowWireLatency(FixedLatencyModel):
    """The fixed model with an 8x slower wire (1024 bytes = 0.5 ms), so
    transfers stay in flight long enough to collide."""

    def wire_time_ms(self, size_bytes: int) -> float:
        return size_bytes / 2048


class LazyThenRest(FetchScheme):
    """Lazy fetch on a page's first fault; on any later fault of the
    page, the rest of the page rides behind the demand transfer as one
    background message."""

    name = "lazyrest"

    def planner(self, latency, subpage_bytes, page_bytes):
        s = subpage_bytes
        full_mask = (1 << page_bytes // s) - 1
        planned = set()

        def plan(now_ms, page, faulted, block):
            # The rest arrives at the rest-of-page latency, after the
            # program resumes, so it always rides in ``masks``.
            masks = ()
            arrivals = []
            background_wire = 0.0
            rest = full_mask & ~(1 << faulted)
            if page in planned and rest:
                masks = (rest,)
                arrivals = [now_ms + latency.rest_of_page_ms(s)]
                background_wire = latency.wire_time_ms(page_bytes - s)
            planned.add(page)
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


class NeighbourOnly(FetchScheme):
    """Lazy fetch plus the next subpage only: a follow-on that leaves
    the rest of the page out."""

    name = "neighbour"

    def planner(self, latency, subpage_bytes, page_bytes):
        s = subpage_bytes
        subpages = page_bytes // s

        def plan(now_ms, page, faulted, block):
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


def slow_wire_config(congestion: bool, memory_pages: int = 8,
                     observe: str = "",
                     scheme: FetchScheme | None = None) -> SimulationConfig:
    return SimulationConfig(
        memory_pages=memory_pages,
        scheme=scheme if scheme is not None else LazyThenRest(),
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
        result = simulate(make_trace(self.TRACE), slow_wire_config(True))
        assert result.remote_faults == 1
        assert result.subpage_faults == 1
        # A demand transfer per fault; one background transfer, the
        # subpage fault's rest of page (the page fault ships none).
        assert result.link_stats["demand_transfers"] == 2
        assert result.link_stats["background_transfers"] == 1

    def test_congestion_delays_the_followon(self):
        congested = simulate(make_trace(self.TRACE), slow_wire_config(True))
        idle = simulate(make_trace(self.TRACE), slow_wire_config(False))

        # Identical fault structure either way.
        assert idle.subpage_faults == congested.subpage_faults == 1
        assert idle.link_stats["background_transfers"] == 0

        # Idle link: the subpage fault at t=0.501 promises subpage 5 at
        # the rest-of-page latency, 2.001; the program touches it at
        # 1.002 and waits out the difference.
        start, end = idle.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.002), pytest.approx(2.001))

        # Congested: the follow-on queues behind its own demand
        # transfer (ready at 0.751, on the wire until 1.251), so it
        # starts 0.5 ms late and lands at 2.501 instead.
        start, end = congested.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.002), pytest.approx(2.501))
        assert congested.link_stats["queueing_delay_ms"] == pytest.approx(
            0.5
        )
        assert congested.link_stats["preemption_delay_ms"] == 0.0
        assert congested.total_ms > idle.total_ms


class TestDemandPreemptsSubpageTransfer:
    """Bugfix 2: the schedule carries a real ``wire_end_ms``, so a later
    demand transfer still sees (and shifts) it in flight."""

    TRACE = [sp(0, 0), sp(0, 4), sp(1, 0), sp(0, 5)]

    def test_followon_arrival_is_pushed_back(self):
        result = simulate(make_trace(self.TRACE), slow_wire_config(True))
        assert result.remote_faults == 2
        assert result.subpage_faults == 1
        # Page 1's fault finds the wire busy with page 0's rest of page.
        assert result.overlapped_faults == 1
        # Without the fix the subpage schedule is reaped immediately
        # (wire_end_ms == 0.0) and subpage 5 would arrive at 2.501;
        # with it, page 1's demand transfer pushes the arrival to 3.001.
        start, end = result.stall_intervals[-1]
        assert (start, end) == (pytest.approx(1.503), pytest.approx(3.001))
        # Preempted once by 0.5 ms: the subpage fault's registered
        # schedule.
        assert result.link_stats["preemption_delay_ms"] == pytest.approx(
            0.5
        )


class TestEvictionDuringLazyTransfer:
    """Bugfix 2 (accounting): evicting a page whose lazy follow-on is
    still in flight counts as a cancelled transfer."""

    def test_cancelled_transfer_counted(self):
        trace = make_trace([sp(0, 0), sp(0, 4), sp(1, 0)])
        result = simulate(
            trace, slow_wire_config(False, memory_pages=1,
                                    observe="metrics"),
        )
        # Page 1's fault evicts page 0 at ~1.002 while its rest of page
        # (due 2.001) is still outstanding.
        assert result.evictions == 1
        assert result.cancelled_transfers == 1
        counters = result.metrics["counters"]
        assert counters["transfers_cancelled"] == 1
        assert counters["evictions"] == 1

    def test_completed_transfer_evicts_cleanly(self):
        # Touching subpage 5 first waits out the transfer and folds the
        # schedule, so the later eviction cancels nothing.
        trace = make_trace([sp(0, 0), sp(0, 4), sp(0, 5), sp(1, 0)])
        result = simulate(
            trace, slow_wire_config(False, memory_pages=1),
        )
        assert result.evictions == 1
        assert result.cancelled_transfers == 0


class TestFollowOnContract:
    """A follow-on that leaves part of the page out breaks the
    placement contract; the simulator stops at the first subpage fault
    on a page whose schedule is still in flight."""

    @pytest.mark.parametrize("congestion", [False, True])
    def test_partial_followon_raises(self, congestion):
        # Page 0's fault ships only subpage 1 (due 1.5); subpage 4,
        # never requested, is touched at 0.501 while it is in flight.
        config = slow_wire_config(congestion, scheme=NeighbourOnly())
        with pytest.raises(SchemeError) as raised:
            simulate(make_trace([sp(0, 0), sp(0, 4)]), config)
        message = str(raised.value)
        assert "subpage 4 of page 0" in message
        assert "cover every subpage the page lacks" in message

