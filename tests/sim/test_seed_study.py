"""Cancelled-transfer accounting: evicting a page whose transfers are
still in flight.  (Seed robustness is Abl G in ``tests/test_ablations.py``.)"""

from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate

from tests.conftest import make_trace, page_addr


class TestCancelledTransfers:
    def test_eviction_of_inflight_page_counted(self, fixed_latency):
        config = SimulationConfig(
            memory_pages=1,
            scheme="eager",
            subpage_bytes=1024,
            latency_model=fixed_latency,
            event_ns=1000.0,
            congestion=False,
            use_trace_dilation=False,
        )
        # Fault page 0, then immediately fault page 1: page 0 is evicted
        # while its rest-of-page transfer is still in flight.
        trace = make_trace([page_addr(0), page_addr(1)])
        result = simulate(trace, config)
        assert result.evictions == 1
        assert result.cancelled_transfers == 1

    def test_completed_page_eviction_not_cancelled(self, base_config):
        config = base_config.with_overrides(memory_pages=1)
        # 2000 us of execution lets the rest (1.5 ms) land first.
        trace = make_trace([page_addr(0)] * 2000 + [page_addr(1)])
        result = simulate(trace, config)
        assert result.evictions == 1
        assert result.cancelled_transfers == 0
