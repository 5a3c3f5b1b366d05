"""Property-based invariants every fetch scheme's placements must
satisfy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schemes import make_scheme

from tests.conftest import FixedLatencyModel, place

LATENCY = FixedLatencyModel()


@st.composite
def faults(draw):
    """Keyword arguments for :func:`tests.conftest.place` on an 8K page
    under the fixed latency model."""
    subpage_bytes = draw(st.sampled_from([256, 512, 1024, 2048, 4096,
                                          8192]))
    spp = 8192 // subpage_bytes
    subpage = draw(st.integers(min_value=0, max_value=spp - 1))
    blocks_per_sub = subpage_bytes // 256
    block = subpage * blocks_per_sub + draw(
        st.integers(min_value=0, max_value=blocks_per_sub - 1)
    )
    now = draw(st.floats(min_value=0.0, max_value=1e4,
                         allow_nan=False, allow_infinity=False))
    return dict(
        now=now,
        page=draw(st.integers(min_value=0, max_value=1 << 20)),
        subpage=subpage,
        block=block,
        subpage_bytes=subpage_bytes,
        latency=LATENCY,
    )


@st.composite
def schemes(draw):
    name = draw(st.sampled_from(["fullpage", "lazy", "eager",
                                 "pipelined"]))
    kwargs = {}
    if name == "pipelined":
        kwargs = {
            "sequencer": draw(st.sampled_from(["neighbor", "ascending"])),
            "pipeline_count": draw(st.integers(min_value=0, max_value=31)),
            "segment_subpages": draw(st.integers(min_value=1,
                                                 max_value=4)),
            "interrupt_ms": draw(st.sampled_from([0.0, 0.068, 0.091])),
            "double_initial": draw(st.booleans()),
        }
    return make_scheme(name, **kwargs)


class TestPlanInvariants:
    @given(fault=faults(), scheme=schemes())
    @settings(max_examples=200)
    def test_plan_is_consistent(self, fault, scheme):
        now = fault["now"]
        plan = place(scheme, **fault)
        # The program resumes after the fault occurred.
        assert plan.resume_ms > now
        # The faulted subpage is delivered exactly at resume.
        assert plan.valid_bits >> fault["subpage"] & 1
        # Valid subpages have arrived by resume; the rest follow later.
        taken = plan.valid_bits
        for mask, arrival in plan.follow:
            assert mask and not taken & mask  # disjoint messages
            taken |= mask
            assert arrival > plan.resume_ms
        # Nothing arrives before resume or in the past.
        for index, arrival in plan.arrivals_ms.items():
            assert 0 <= index < 8192 // fault["subpage_bytes"]
            assert arrival >= plan.resume_ms - 1e-9
            assert arrival > now
        # Wire occupancy and overheads are sane.
        assert plan.demand_wire_ms >= 0
        assert plan.background_wire_ms >= 0
        assert plan.cpu_overhead_ms >= 0
        if plan.background_wire_ms > 0:
            assert plan.background_ready_ms >= now

    @given(fault=faults())
    @settings(max_examples=100)
    def test_eager_and_pipelined_cover_the_page(self, fault):
        for name in ("eager", "pipelined", "fullpage"):
            plan = place(make_scheme(name), **fault)
            assert set(plan.arrivals_ms) == set(
                range(8192 // fault["subpage_bytes"])
            )

    @given(fault=faults())
    @settings(max_examples=100)
    def test_lazy_covers_only_the_faulted_subpage(self, fault):
        plan = place(make_scheme("lazy"), **fault)
        assert set(plan.arrivals_ms) == {fault["subpage"]}

    @given(fault=faults(), scheme=schemes())
    @settings(max_examples=100)
    def test_total_wire_bounded_by_page(self, fault, scheme):
        plan = place(scheme, **fault)
        page_wire = LATENCY.wire_time_ms(8192)
        total = plan.demand_wire_ms + plan.background_wire_ms
        assert total <= page_wire + 1e-9

    @given(fault=faults())
    @settings(max_examples=100)
    def test_resume_never_later_than_fullpage(self, fault):
        # Subpage schemes must never make the *initial* wait worse than
        # simply fetching the whole page.
        fullpage = place(make_scheme("fullpage"), **fault).resume_ms
        for name in ("eager", "pipelined", "lazy"):
            assert place(make_scheme(name), **fault).resume_ms <= (
                fullpage + 1e-9
            )
