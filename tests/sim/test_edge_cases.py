"""Simulator edge cases: degenerate traces and unusual configurations."""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate

from tests.conftest import make_trace, page_addr


class TestDegenerateTraces:
    def test_empty_trace(self, base_config):
        result = simulate(make_trace([]), base_config)
        assert result.total_ms == 0.0
        assert result.page_faults == 0
        assert result.fault_records == []

    def test_single_reference(self, base_config):
        result = simulate(make_trace([0]), base_config)
        assert result.page_faults == 1
        assert result.total_ms == pytest.approx(0.5 + 0.001)

    def test_one_page_many_references(self, base_config):
        result = simulate(make_trace([0] * 100_000), base_config)
        assert result.page_faults == 1
        assert result.components.exec_ms == pytest.approx(100.0)


class TestUnusualConfigurations:
    def test_single_frame_memory(self, base_config):
        config = base_config.with_overrides(memory_pages=1)
        addrs = [page_addr(p) for p in (0, 1, 0, 1)]
        result = simulate(make_trace(addrs), config)
        assert result.page_faults == 4
        assert result.evictions == 3

    def test_single_frame_with_pipelining(self, base_config):
        config = base_config.with_overrides(
            memory_pages=1, scheme="pipelined"
        )
        addrs = [page_addr(p) for p in (0, 1, 2)]
        result = simulate(make_trace(addrs), config)
        assert result.page_faults == 3

    def test_subpage_equals_page(self, base_config):
        # Eager with subpage == page degenerates to fullpage fetch.
        config = base_config.with_overrides(subpage_bytes=8192)
        result = simulate(make_trace([0]), config)
        assert result.components.sp_latency_ms == pytest.approx(2.0)
        assert result.components.page_wait_ms == 0.0

    def test_smallest_subpage(self, base_config):
        config = base_config.with_overrides(subpage_bytes=256)
        addrs = [page_addr(0, off) for off in range(0, 8192, 256)]
        result = simulate(make_trace(addrs), config)
        assert result.page_faults == 1
        # 31 later subpages touched while the rest is in flight: one
        # stall, then everything is resident.
        assert result.components.page_wait_ms > 0

    def test_lazy_with_congestion(self, fixed_latency):
        config = SimulationConfig(
            memory_pages=8,
            scheme="lazy",
            subpage_bytes=1024,
            latency_model=fixed_latency,
            event_ns=1000.0,
            congestion=True,
            use_trace_dilation=False,
        )
        addrs = [page_addr(0), page_addr(0, 1024), page_addr(1)]
        result = simulate(make_trace(addrs), config)
        assert result.subpage_faults == 1
        assert result.remote_faults == 2

    def test_palcode_with_lazy(self, base_config):
        # Lazy pages are permanently incomplete; emulation still only
        # applies while transfers are pending (none for lazy), so the
        # combination must run cleanly.
        config = base_config.with_overrides(
            scheme="lazy", protection="palcode"
        )
        addrs = [page_addr(0), page_addr(0, 1024)]
        result = simulate(make_trace(addrs), config)
        assert result.subpage_faults == 1

    def test_write_only_trace(self, base_config):
        addrs = [page_addr(0)] * 10
        result = simulate(
            make_trace(addrs, writes=[True] * 10), base_config
        )
        assert result.page_faults == 1
        config1 = base_config.with_overrides(memory_pages=1)
        result = simulate(
            make_trace(
                [page_addr(0), page_addr(1)], writes=[True, True]
            ),
            config1,
        )
        assert result.dirty_evictions == 1

    def test_huge_page_numbers(self, base_config):
        # Virtual page numbers near 2^40 must not overflow anything.
        big = (1 << 40) * 8192
        result = simulate(make_trace([big, big + 8192]), base_config)
        assert result.page_faults == 2

    def test_many_small_memory_thrash(self, base_config):
        # Pathological thrash: every access faults; must stay consistent.
        config = base_config.with_overrides(memory_pages=1)
        addrs = [page_addr(p % 3) for p in range(60)]
        result = simulate(make_trace(addrs), config)
        assert result.page_faults == 60
        assert result.evictions == 59
