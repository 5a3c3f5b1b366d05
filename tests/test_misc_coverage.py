"""Focused coverage for remaining small behaviours across modules."""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate

from tests.conftest import make_trace, page_addr


class TestExperimentsCommon:
    def test_get_trace_cached(self):
        from repro.experiments.common import get_trace

        assert get_trace("gdb") is get_trace("gdb")

    def test_run_cached_identity(self):
        from repro.experiments.common import run_cached

        a = run_cached("gdb", 0.5)
        b = run_cached("gdb", 0.5)
        assert a is b


class TestTimelineSegmentGap:
    def test_gap_delays_second_segment(self):
        from repro.net.timeline import TimelineParams, simulate_fetch

        tight = TimelineParams(srv_segment_gap_ms=0.0)
        loose = TimelineParams(srv_segment_gap_ms=0.4)
        t_tight = simulate_fetch(tight, 8192, 1024, scheme="eager")
        t_loose = simulate_fetch(loose, 8192, 1024, scheme="eager")
        assert t_loose.completion_ms > t_tight.completion_ms
        # The first (demand) segment is unaffected by the gap.
        assert t_loose.resume_ms == pytest.approx(t_tight.resume_ms)


class TestTlbEvictionInvalidate:
    def test_evicted_page_misses_tlb_on_return(self, base_config):
        config = base_config.with_overrides(
            memory_pages=1, tlb_entries=16, tlb_miss_ns=1000.0
        )
        # Page 0 in, page 1 evicts it, page 0 returns: its translation
        # must have been shot down with the eviction.
        addrs = [page_addr(0), page_addr(1), page_addr(0)]
        result = simulate(make_trace(addrs), config)
        assert result.tlb_stats["misses"] == 3


class TestPatternsDetail:
    def test_strided_wraps_with_phase_shift(self):
        import numpy as np

        from repro.trace.synth.patterns import Strided
        from repro.trace.synth.regions import Region

        region = Region("r", base=0, size=4096)
        addrs = Strided(stride=1024).generate(
            region, 10, np.random.default_rng(0)
        )
        # After four steps the walk wraps with a one-word shift so it
        # does not retrace itself exactly.
        assert addrs[4] != addrs[0]
        assert addrs.max() < region.end

    def test_pointer_chase_multi_touch_compresses(self):
        import numpy as np

        from repro.trace.compress import compress_references
        from repro.trace.synth.patterns import PointerChase
        from repro.trace.synth.regions import Region

        region = Region("r", base=0, size=8192 * 8)
        addrs = PointerChase(node_bytes=256, touches_per_node=4).generate(
            region, 4000, np.random.default_rng(0)
        )
        trace = compress_references(addrs)
        # Four touches per 256B node land in one block: ~4x compression.
        assert trace.compression_ratio > 3.0


class TestReportFormatting:
    def test_bool_cells_render_as_text(self):
        from repro.analysis.report import format_table

        out = format_table(["ok"], [(True,), (False,)])
        assert "True" in out and "False" in out

    def test_mixed_column_left_aligned(self):
        from repro.analysis.report import format_table

        out = format_table(["v"], [("abc",), (1.0,)])
        # A column with any string cell is not right-aligned.
        lines = out.splitlines()
        assert lines[2].startswith("abc")


class TestDiskStatsEdge:
    def test_average_of_nothing(self):
        from repro.disk.model import DiskStats

        assert DiskStats().average_ms == 0.0


class TestWorkloadChaining:
    def test_add_returns_self(self):
        from repro.trace.synth.phases import Phase, PhaseComponent, Workload
        from repro.trace.synth.patterns import Sequential
        from repro.trace.synth.regions import Region

        region = Region("r", 0, 8192)
        phase = Phase("p", 10, (PhaseComponent(region, Sequential()),))
        wl = Workload(name="w").add(phase).add(phase)
        assert wl.total_refs == 20


class TestMultiNodeAggregates:
    def test_result_defaults(self):
        from repro.sim.multitenant import MultiTenantResult

        result = MultiTenantResult()
        assert result.shared_copies == 0
        assert result.total_faults == 0


class TestSchedulerLabels:
    def test_lazy_label(self):
        from repro.core.schemes import LazySubpageFetch

        assert LazySubpageFetch().label(512, 8192) == "lazy_512"

    def test_fullpage_label_via_config(self):
        config = SimulationConfig(
            memory_pages=1, scheme="fullpage", subpage_bytes=8192
        )
        assert config.scheme_label() == "p_8192"
