"""Property-based simulator invariants on random traces.

These run the full simulator over hypothesis-generated reference streams
and check the accounting identities that must hold regardless of the
workload, scheme, or configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

from tests.conftest import FixedLatencyModel


@st.composite
def trace_and_config(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    num_pages = draw(st.integers(min_value=1, max_value=12))
    pages = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_pages - 1),
            min_size=n, max_size=n,
        )
    )
    offsets = draw(
        st.lists(
            st.integers(min_value=0, max_value=1023),
            min_size=n, max_size=n,
        )
    )
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    addrs = np.array(pages, dtype=np.int64) * 8192 + np.array(
        offsets, dtype=np.int64
    ) * 8
    trace = compress_references(addrs, np.array(writes, dtype=bool))

    scheme = draw(st.sampled_from(
        ["fullpage", "eager", "pipelined", "lazy"]
    ))
    subpage = (
        8192 if scheme == "fullpage"
        else draw(st.sampled_from([256, 512, 1024, 2048, 4096]))
    )
    config = SimulationConfig(
        memory_pages=draw(st.integers(min_value=1, max_value=8)),
        scheme=scheme,
        subpage_bytes=subpage,
        latency_model=FixedLatencyModel(),
        event_ns=1000.0,
        congestion=draw(st.booleans()),
        use_trace_dilation=False,
    )
    return trace, config


class TestAccountingInvariants:
    @given(trace_and_config())
    @settings(max_examples=60, deadline=None)
    def test_components_nonnegative_and_consistent(self, tc):
        trace, config = tc
        result = simulate(trace, config)
        c = result.components
        for value in c.as_dict().values():
            assert value >= 0
        # exec time is exactly refs * event cost.
        assert c.exec_ms == pytest.approx(
            trace.num_references * 1e-3
        )
        # sp_latency equals the sum over fault records.
        assert c.sp_latency_ms == pytest.approx(
            sum(r.sp_latency_ms for r in result.fault_records)
        )
        assert c.page_wait_ms == pytest.approx(
            sum(r.page_wait_ms for r in result.fault_records)
        )

    @given(trace_and_config())
    @settings(max_examples=60, deadline=None)
    def test_fault_counts_bounded(self, tc):
        trace, config = tc
        result = simulate(trace, config)
        distinct = trace.footprint_pages()
        # At least one fault per distinct page (cold start) and no more
        # page faults than runs.
        assert result.page_faults >= min(distinct, trace.num_runs)
        assert result.page_faults <= trace.num_runs
        assert 0 <= result.dirty_evictions <= result.evictions

    @given(trace_and_config())
    @settings(max_examples=60, deadline=None)
    def test_stall_intervals_ordered_and_disjoint(self, tc):
        trace, config = tc
        result = simulate(trace, config)
        intervals = result.stall_intervals
        for start, end in intervals:
            assert end >= start >= 0
        # Sequential program: at most one stall per run, and every run
        # advances the clock, so starts strictly increase and no two
        # stalls overlap.
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 > s1
            assert s2 >= e1

    @given(trace_and_config())
    @settings(max_examples=40, deadline=None)
    def test_eviction_conservation(self, tc):
        trace, config = tc
        result = simulate(trace, config)
        resident = result.page_faults - result.evictions
        assert 0 <= resident <= config.memory_pages

    @given(trace_and_config())
    @settings(max_examples=40, deadline=None)
    def test_fault_records_sorted_by_time(self, tc):
        trace, config = tc
        result = simulate(trace, config)
        times = [r.time_ms for r in result.fault_records]
        assert times == sorted(times)

    @given(trace_and_config())
    @settings(max_examples=40, deadline=None)
    def test_waiting_at_least_subpage_latency(self, tc):
        trace, config = tc
        result = simulate(trace, config)
        for record in result.fault_records:
            assert record.waiting_ms >= record.sp_latency_ms - 1e-9

    @given(trace_and_config())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, tc):
        trace, config = tc
        r1 = simulate(trace, config)
        r2 = simulate(trace, config)
        assert r1.total_ms == r2.total_ms
        assert r1.page_faults == r2.page_faults
        assert r1.evictions == r2.evictions


class TestSchemeOrderingProperties:
    @given(trace_and_config())
    @settings(max_examples=30, deadline=None)
    def test_eager_never_slower_than_fullpage_without_congestion(self, tc):
        # With the fixed model (sub 0.5 / rest 1.5 / full 2.0) and no
        # congestion, each fault's waiting under eager is bounded by the
        # fullpage latency, so the total can never be worse.
        trace, config = tc
        config = config.with_overrides(
            scheme="eager", subpage_bytes=1024, congestion=False
        )
        eager = simulate(trace, config)
        full = simulate(
            trace,
            config.with_overrides(scheme="fullpage", subpage_bytes=8192),
        )
        assert eager.total_ms <= full.total_ms + 1e-6
