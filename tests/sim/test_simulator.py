"""Simulator correctness on hand-built traces.

All scenarios but ``TestCalibratedLatency`` use the FixedLatencyModel
(subpage 0.5 ms, rest-of-page 1.5 ms, fullpage 2.0 ms, wire = size/8192
ms) and a 1 us event cost, so expected totals can be computed by hand.
"""

import numpy as np
import pytest

from repro.core.fault import FaultKind
from repro.errors import ConfigError
from repro.net.latency import CalibratedLatencyModel
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator, simulate
from repro.trace.compress import compress_references
from repro.units import PAPER_SUBPAGE_SIZES

from tests.conftest import make_trace, page_addr

US = 0.001  # one event, in ms


def run(config, addresses, writes=None):
    return simulate(make_trace(addresses, writes), config)


class TestSingleFault:
    def test_eager_single_subpage(self, base_config):
        result = run(base_config, [page_addr(0)] * 10)
        c = result.components
        assert result.remote_faults == 1
        assert c.exec_ms == pytest.approx(10 * US)
        assert c.sp_latency_ms == pytest.approx(0.5)
        assert c.page_wait_ms == 0.0
        assert result.total_ms == pytest.approx(0.51)

    def test_fullpage_single_access(self, base_config):
        config = base_config.with_overrides(
            scheme="fullpage", subpage_bytes=8192
        )
        result = run(config, [page_addr(0)])
        assert result.components.sp_latency_ms == pytest.approx(2.0)
        assert result.total_ms == pytest.approx(2.0 + US)

    def test_fault_records_shape(self, base_config):
        result = run(base_config, [page_addr(0)])
        assert len(result.fault_records) == 1
        record = result.fault_records[0]
        assert record.kind is FaultKind.REMOTE
        assert record.time_ms == 0.0
        assert record.sp_latency_ms == pytest.approx(0.5)
        assert record.window_start_ms == pytest.approx(0.5)

    def test_stall_interval_recorded(self, base_config):
        result = run(base_config, [page_addr(0)])
        assert result.stall_intervals == [(0.0, pytest.approx(0.5))]


class TestCalibratedLatency:
    """The Section 3.2 micro check: an isolated fault costs exactly what
    the calibrated model (the prototype's Table 2 medians) says."""

    @pytest.mark.parametrize(
        "scheme,size",
        [("eager", size) for size in PAPER_SUBPAGE_SIZES]
        + [("pipelined", 1024), ("lazy", 1024), ("fullpage", 8192)],
    )
    def test_one_fault_costs_model_latency(self, scheme, size):
        model = CalibratedLatencyModel()
        config = SimulationConfig(
            memory_pages=4, scheme=scheme, subpage_bytes=size
        )
        result = run(config, [page_addr(0)])
        assert result.remote_faults == 1
        expected = (
            model.fullpage_latency_ms()
            if scheme == "fullpage"
            else model.subpage_latency_ms(size)
        )
        assert result.components.sp_latency_ms == pytest.approx(expected)


class TestPageWait:
    def test_early_touch_of_next_subpage_stalls_until_rest(
        self, base_config
    ):
        # Fault sp0 at t=0, resume at 0.5; 5 refs bring us to 0.505;
        # touching sp1 then stalls until the rest arrives at 1.5.
        addrs = [page_addr(0)] * 5 + [page_addr(0, 1024)]
        result = run(base_config, addrs)
        c = result.components
        assert c.sp_latency_ms == pytest.approx(0.5)
        assert c.page_wait_ms == pytest.approx(1.5 - 0.505)
        assert result.total_ms == pytest.approx(1.5 + US)
        record = result.fault_records[0]
        assert record.page_wait_ms == pytest.approx(0.995)
        assert record.waiting_ms == pytest.approx(0.5 + 0.995)

    def test_late_touch_does_not_stall(self, base_config):
        # 1100 us of execution pushes the clock past the 1.5 ms arrival.
        addrs = [page_addr(0)] * 1100 + [page_addr(0, 1024)] * 10
        result = run(base_config, addrs)
        assert result.components.page_wait_ms == 0.0
        assert result.total_ms == pytest.approx(0.5 + 1110 * US)

    def test_multiple_subpage_touches_single_wait(self, base_config):
        # After the first stall (to rest arrival) the page is complete:
        # further subpages are free.
        addrs = (
            [page_addr(0)] * 5
            + [page_addr(0, 1024)]
            + [page_addr(0, 2048), page_addr(0, 4096)]
        )
        result = run(base_config, addrs)
        assert result.components.page_wait_ms == pytest.approx(0.995)


class TestEvictionAndRefault:
    def test_capacity_eviction_lru(self, base_config):
        config = base_config.with_overrides(memory_pages=2)
        addrs = [
            page_addr(0), page_addr(1), page_addr(2), page_addr(0),
        ]
        result = run(config, addrs)
        assert result.remote_faults == 4  # page 0 refaults
        assert result.evictions == 2

    def test_lru_keeps_recent(self, base_config):
        config = base_config.with_overrides(memory_pages=2)
        # 0, 1, touch 0, fault 2 evicts 1; touching 0 again is free.
        addrs = [
            page_addr(0), page_addr(1), page_addr(0),
            page_addr(2), page_addr(0),
        ]
        result = run(config, addrs)
        assert result.remote_faults == 3

    def test_dirty_evictions_counted(self, base_config):
        config = base_config.with_overrides(memory_pages=1)
        addrs = [page_addr(0), page_addr(1)]
        result = run(config, addrs, writes=[True, False])
        assert result.evictions == 1
        assert result.dirty_evictions == 1

    def test_clean_eviction_not_dirty(self, base_config):
        config = base_config.with_overrides(memory_pages=1)
        result = run(config, [page_addr(0), page_addr(1)])
        assert result.dirty_evictions == 0


class TestDiskBacking:
    def test_disk_faults(self, base_config):
        config = base_config.with_overrides(
            backing="disk", scheme="fullpage", subpage_bytes=8192
        )
        result = run(config, [page_addr(0), page_addr(1)])
        assert result.disk_faults == 2
        assert result.remote_faults == 0
        # Page 1 follows page 0: the second access is sequential.
        from repro.disk.presets import paper_disk
        from repro.disk.model import DiskAccessKind

        disk = paper_disk()
        expected = disk.access_latency_ms(
            DiskAccessKind.RANDOM
        ) + disk.access_latency_ms(DiskAccessKind.SEQUENTIAL)
        assert result.components.sp_latency_ms == pytest.approx(expected)

    def test_disk_page_complete_immediately(self, base_config):
        config = base_config.with_overrides(
            backing="disk", scheme="fullpage", subpage_bytes=8192
        )
        result = run(
            config, [page_addr(0), page_addr(0, 4096)]
        )
        assert result.components.page_wait_ms == 0.0


class TestLazyScheme:
    def test_subpage_faults(self, base_config):
        config = base_config.with_overrides(scheme="lazy")
        addrs = [page_addr(0), page_addr(0, 1024), page_addr(0, 2048)]
        result = run(config, addrs)
        assert result.remote_faults == 1
        assert result.subpage_faults == 2
        # Each fetch waits the full subpage latency.
        assert result.components.sp_latency_ms == pytest.approx(1.5)

    def test_revisited_subpage_free(self, base_config):
        config = base_config.with_overrides(scheme="lazy")
        addrs = [page_addr(0), page_addr(0, 1024), page_addr(0)]
        result = run(config, addrs)
        assert result.subpage_faults == 1


class TestPipelinedScheme:
    def test_neighbor_arrives_quickly(self, base_config):
        config = base_config.with_overrides(scheme="pipelined")
        # Fault sp2; touch sp3 immediately after resume.
        addrs = [page_addr(0, 2048)] * 5 + [page_addr(0, 3072)]
        result = run(config, addrs)
        # sp3 arrives at resume + wire(1K) = 0.5 + 0.125 = 0.625.
        assert result.components.page_wait_ms == pytest.approx(
            0.625 - 0.505
        )

    def test_beats_eager_on_neighbor_touch(self, base_config):
        addrs = [page_addr(0, 2048)] * 5 + [page_addr(0, 3072)]
        eager = run(base_config, addrs)
        piped = run(
            base_config.with_overrides(scheme="pipelined"), addrs
        )
        assert piped.total_ms < eager.total_ms

    def test_interrupt_overhead_charged(self, base_config):
        config = base_config.with_overrides(
            scheme="pipelined",
            scheme_kwargs={"interrupt_ms": 0.09},
        )
        result = run(config, [page_addr(0, 2048)])
        assert result.components.cpu_overhead_ms == pytest.approx(
            2 * 0.09
        )


class TestCongestion:
    def test_demand_pushes_background(self, fixed_latency):
        config = SimulationConfig(
            memory_pages=8,
            scheme="eager",
            subpage_bytes=1024,
            latency_model=fixed_latency,
            event_ns=1000.0,
            congestion=True,
            use_trace_dilation=False,
        )
        # Fault page 0 (bg in flight 0.25..1.125); 5 refs; fault page 1 at
        # 0.505 -> demand wire 0.125 pushes page 0's rest to 1.625.
        addrs = (
            [page_addr(0)] * 5
            + [page_addr(1)] * 5
            + [page_addr(0, 1024)]
        )
        result = simulate(make_trace(addrs), config)
        # Touch of page 0 sp1 occurs at 0.505+0.5+0.005 = 1.01 and waits
        # for the shifted arrival at 1.625.
        assert result.components.page_wait_ms == pytest.approx(
            1.625 - 1.010
        )
        assert result.overlapped_faults == 1
        assert result.link_stats["preemption_delay_ms"] == pytest.approx(
            0.125
        )

    def test_no_congestion_no_shift(self, base_config):
        addrs = (
            [page_addr(0)] * 5
            + [page_addr(1)] * 5
            + [page_addr(0, 1024)]
        )
        result = run(base_config, addrs)
        assert result.components.page_wait_ms == pytest.approx(
            1.5 - 1.010
        )


class TestDistanceTracking:
    def test_distance_recorded(self, base_config):
        addrs = [page_addr(0, 2048)] * 1500 + [page_addr(0, 4096)]
        result = run(base_config, addrs)
        assert result.distance_histogram == {2: 1}

    def test_only_first_different_subpage(self, base_config):
        addrs = (
            [page_addr(0, 2048)] * 1500
            + [page_addr(0, 3072)] * 800
            + [page_addr(0, 7168)]
        )
        result = run(base_config, addrs)
        assert result.distance_histogram == {1: 1}


class TestTlbIntegration:
    def test_tlb_miss_time_in_components(self, base_config):
        config = base_config.with_overrides(
            tlb_entries=1, tlb_miss_ns=1000.0, memory_pages=8
        )
        # Alternate pages: every page switch misses the 1-entry TLB.
        addrs = [page_addr(0), page_addr(1)] * 50
        result = run(config, addrs)
        assert result.tlb_stats["misses"] > 90
        assert result.components.tlb_miss_ms == pytest.approx(
            result.tlb_stats["misses"] * 0.001
        )


class TestPalcodeIntegration:
    def test_emulation_charged_on_incomplete_pages(self, base_config):
        config = base_config.with_overrides(protection="palcode")
        # 100 refs to sp0 while the rest of the page is still in flight.
        result = run(config, [page_addr(0)] * 100)
        assert result.components.emulation_ms > 0
        assert result.emulation_stats["emulated_accesses"] > 0

    def test_no_emulation_in_tlb_mode(self, base_config):
        result = run(base_config, [page_addr(0)] * 100)
        assert result.components.emulation_ms == 0.0


class TestClusterBacking:
    def test_warm_cluster_serves_remote(self, base_config):
        config = base_config.with_overrides(
            backing="cluster", cluster_nodes=3, memory_pages=4
        )
        addrs = [page_addr(p) for p in range(8)]
        result = run(config, addrs)
        assert result.remote_faults == 8
        assert result.disk_faults == 0
        assert result.cluster_stats["remote_hits"] == 8
        assert result.cluster_stats["global_hit_ratio"] == 1.0

    def test_refault_after_eviction_still_remote(self, base_config):
        config = base_config.with_overrides(
            backing="cluster", cluster_nodes=3, memory_pages=2
        )
        addrs = [page_addr(p) for p in (0, 1, 2, 0)]
        result = run(config, addrs)
        assert result.remote_faults == 4
        assert result.cluster_stats["putpages"] == 2
        assert result.disk_faults == 0


class TestInvariants:
    def test_clock_equals_component_sum(self, base_config):
        # The result's components must account for every simulated ms.
        import numpy as np

        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 16, size=2000) * 8192
                 + rng.integers(0, 1024, size=2000) * 8).tolist()
        config = base_config.with_overrides(memory_pages=4)
        result = run(config, addrs)
        recomputed = (
            result.components.exec_ms
            + sum(r.sp_latency_ms for r in result.fault_records)
            + sum(r.page_wait_ms for r in result.fault_records)
            + sum(r.cpu_overhead_ms for r in result.fault_records)
        )
        assert result.total_ms == pytest.approx(recomputed)

    def test_deterministic(self, base_config):
        addrs = [page_addr(p % 5, (p * 640) % 8192) for p in range(500)]
        r1 = run(base_config.with_overrides(memory_pages=3), addrs)
        r2 = run(base_config.with_overrides(memory_pages=3), addrs)
        assert r1.total_ms == r2.total_ms
        assert r1.remote_faults == r2.remote_faults

    def test_fault_count_scheme_invariant(self, base_config):
        # Residency depends only on the access stream and LRU, so every
        # scheme sees the same page faults.
        import numpy as np

        rng = np.random.default_rng(1)
        addrs = (rng.integers(0, 12, size=3000) * 8192
                 + rng.integers(0, 1024, size=3000) * 8).tolist()
        counts = set()
        for scheme, sp in (
            ("fullpage", 8192), ("eager", 1024), ("pipelined", 1024)
        ):
            config = base_config.with_overrides(
                memory_pages=6, scheme=scheme, subpage_bytes=sp
            )
            counts.add(run(config, addrs).remote_faults)
        # Not exactly identical: eviction prefers pages whose transfers
        # have finished, and in-flight windows differ slightly per
        # scheme.  But the counts must agree to a fraction of a percent.
        assert max(counts) - min(counts) <= max(counts) * 0.005

    def test_trace_page_size_mismatch_rejected(self, base_config):
        from repro.errors import SimulationError

        trace = make_trace([0], page_bytes=4096, block_bytes=256)
        with pytest.raises(SimulationError):
            simulate(trace, base_config)

    def test_dilation_scales_exec(self, fixed_latency):
        config = SimulationConfig(
            memory_pages=8,
            latency_model=fixed_latency,
            event_ns=1000.0,
            congestion=False,
            use_trace_dilation=True,
        )
        trace = make_trace([page_addr(0)] * 100, dilation=3.0)
        result = simulate(trace, config)
        assert result.components.exec_ms == pytest.approx(300 * US)


class TestWarmFillClamping:
    """Regressions for the negative-slice bug in the warm fill of the
    simulator's own cluster (:func:`repro.gms.cluster.build_cluster`)."""

    def test_scarce_idle_frames_fill_what_fits(self, base_config):
        # One idle node with a single frame: exactly one of the six
        # workload pages can start warm; the rest must fill from disk.
        config = base_config.with_overrides(
            backing="cluster",
            cluster_nodes=2,
            cluster_idle_frames=1,
            memory_pages=4,
        )
        addrs = [page_addr(p) for p in range(6)]
        result = run(config, addrs)
        assert result.remote_faults == 1
        assert result.disk_faults == 5

    def test_negative_placeable_warm_fills_nothing(
        self, base_config, monkeypatch
    ):
        # When free frames fall below the active node's capacity the
        # subtraction goes negative; vpns[:negative] used to silently
        # warm-fill a front-biased subset.  With the clamp, no pages
        # start warm and every first touch is an honest disk fill.
        from repro.gms.cluster import Cluster

        monkeypatch.setattr(
            Cluster, "total_free_frames", lambda self: 2
        )
        config = base_config.with_overrides(
            backing="cluster", cluster_nodes=2, memory_pages=4
        )
        addrs = [page_addr(p) for p in range(6)]
        result = run(config, addrs)
        assert result.remote_faults == 0
        assert result.disk_faults == 6


class TestOwnCluster:
    """The cluster a simulator builds when it is given none."""

    def test_shared_pages_start_warm(self, base_config):
        # The shared namespace must be warm-filled under the UIDs the
        # faults ask for, or every shared page is a cold disk fill.
        config = base_config.with_overrides(
            backing="cluster", memory_pages=4, shared_from_page=3
        )
        addrs = [page_addr(p) for p in range(6)]
        result = run(config, addrs)
        assert result.disk_faults == 0
        assert result.remote_faults == 6

    def test_other_node_needs_a_shared_cluster(self, base_config):
        config = base_config.with_overrides(
            backing="cluster", cluster_node_id=1
        )
        with pytest.raises(ConfigError, match="cluster_node_id"):
            Simulator(config)
        # The node id is irrelevant without a cluster.
        Simulator(config.with_overrides(backing="remote"))


def visiting_trace(seed: int, pages: int, name: str):
    """Page visits that sweep a few blocks each, with writes, over a
    footprint larger than the reuse tests' 12 frames."""
    rng = np.random.default_rng(seed)
    visits = rng.integers(0, pages, size=400)
    starts = rng.integers(0, 120, size=400)
    blocks = (starts[:, None] + np.arange(6)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.3
    return compress_references(addrs, writes, name=name)


class TestReusedSimulator:
    """One simulator runs trace A, then B, then A again: each run is
    ``==`` to a fresh simulation, so nothing of an earlier run leaks
    into the next through the run state the simulator holds."""

    @pytest.mark.parametrize("overrides", [
        {"scheme": "adaptive",
         "scheme_kwargs": {"predictor": "stride", "max_depth": 6,
                           "switch_schemes": True}},
        {"backing": "cluster", "cluster_warm": False},
        {"tlb_entries": 16, "replacement": "clock"},
        {"protection": "palcode", "scheme": "pipelined"},
        {"observe": "metrics,trace", "replacement": "random"},
    ], ids=["adaptive", "cluster", "tlb", "palcode", "observe"])
    def test_each_run_equals_a_fresh_one(self, overrides):
        config = SimulationConfig(memory_pages=12, **overrides)
        a = visiting_trace(1, 40, "a")
        b = visiting_trace(2, 24, "b")
        sim = Simulator(config)
        for trace in (a, b, a):
            assert sim.run(trace) == simulate(trace, config)
