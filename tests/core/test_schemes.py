"""Fetch schemes: planned faults under a fixed latency model."""

import pytest

from repro.core.plans import PlanRow
from repro.core.schemes import (
    EagerFullPageFetch,
    FullPageFetch,
    LazySubpageFetch,
    SubpagePipelining,
    make_scheme,
    scheme_names,
)
from repro.errors import ConfigError, SchemeError, UnknownSchemeError

from tests.conftest import FixedLatencyModel, place


class TestFullPage:
    def test_plan(self):
        plan = place(FullPageFetch())
        assert plan.resume_ms == pytest.approx(12.0)  # now + 2.0
        assert len(plan.arrivals_ms) == 8
        assert all(a == plan.resume_ms for a in plan.arrivals_ms.values())
        assert plan.background_wire_ms == 0

    def test_demand_wire_is_whole_page(self):
        plan = place(FullPageFetch())
        assert plan.demand_wire_ms == pytest.approx(1.0)

    def test_label(self):
        assert FullPageFetch().label(8192, 8192) == "p_8192"


class TestLazy:
    def test_plan_covers_only_faulted(self):
        plan = place(LazySubpageFetch(), subpage=3)
        assert plan.resume_ms == pytest.approx(10.5)
        assert set(plan.arrivals_ms) == {3}
        assert plan.background_wire_ms == 0

    def test_demand_wire_is_subpage(self):
        plan = place(LazySubpageFetch())
        assert plan.demand_wire_ms == pytest.approx(1024 / 8192)


class TestEager:
    def test_plan_shape(self):
        plan = place(EagerFullPageFetch(), subpage=2)
        assert plan.resume_ms == pytest.approx(10.5)
        assert plan.arrivals_ms[2] == pytest.approx(10.5)
        for other in (0, 1, 3, 4, 5, 6, 7):
            assert plan.arrivals_ms[other] == pytest.approx(11.5)
        assert plan.background_wire_ms > 0

    def test_background_wire_is_rest_of_page(self):
        plan = place(EagerFullPageFetch())
        assert plan.background_wire_ms == pytest.approx(7168 / 8192)

    def test_background_rides_behind_demand_wire(self):
        # The rest's nominal wire slot starts where the subpage's ends:
        # now + request + wire(subpage).
        plan = place(EagerFullPageFetch())
        assert plan.background_ready_ms == pytest.approx(
            10.0 + 0.25 + 1024 / 8192
        )

    def test_degenerates_to_fullpage(self):
        plan = place(
            EagerFullPageFetch(), subpage_bytes=8192, subpage=0, block=0
        )
        assert plan.resume_ms == pytest.approx(12.0)
        assert plan.background_wire_ms == 0

    def test_label(self):
        assert EagerFullPageFetch().label(1024, 8192) == "sp_1024"


class TestPipelined:
    def test_neighbor_arrivals_staggered(self):
        scheme = SubpagePipelining(pipeline_count=2)
        plan = place(scheme, subpage=2)
        wire = 1024 / 8192
        assert plan.arrivals_ms[2] == pytest.approx(10.5)
        assert plan.arrivals_ms[3] == pytest.approx(10.5 + wire)
        assert plan.arrivals_ms[1] == pytest.approx(10.5 + 2 * wire)

    def test_trailing_subpages_at_rest_time(self):
        plan = place(SubpagePipelining(pipeline_count=2), subpage=2)
        for trailing in (0, 4, 5, 6, 7):
            assert plan.arrivals_ms[trailing] == pytest.approx(11.5)

    def test_covers_whole_page(self):
        plan = place(SubpagePipelining(pipeline_count=3))
        assert set(plan.arrivals_ms) == set(range(8))

    def test_pipeline_everything(self):
        plan = place(SubpagePipelining(pipeline_count=7), subpage=0)
        arrivals = [plan.arrivals_ms[i] for i in range(1, 8)]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == 7  # all individually staggered

    def test_interrupt_cost_spaces_and_charges(self):
        scheme = SubpagePipelining(pipeline_count=2, interrupt_ms=0.091)
        plan = place(scheme, subpage=2)
        wire = 1024 / 8192
        assert plan.arrivals_ms[3] == pytest.approx(10.5 + wire + 0.091)
        assert plan.cpu_overhead_ms == pytest.approx(2 * 0.091)

    def test_doubled_followon_segments(self):
        # Section 4.3's "doubled pipeline transfer" variant: two subpages
        # per pipelined message.
        scheme = SubpagePipelining(pipeline_count=1, segment_subpages=2)
        plan = place(scheme, subpage=2)
        wire2 = 2048 / 8192
        assert plan.arrivals_ms[3] == pytest.approx(10.5 + wire2)
        assert plan.arrivals_ms[1] == pytest.approx(10.5 + wire2)

    def test_double_initial_prefers_direction(self):
        # Faulted word near the subpage's end -> bring +1 along.
        scheme = SubpagePipelining(double_initial=True, pipeline_count=0)
        plan = place(scheme, subpage=2, block=11)  # block 3 of 4
        assert plan.arrivals_ms[3] == plan.resume_ms
        # Near the start -> bring -1.
        plan = place(scheme, subpage=2, block=8)
        assert plan.arrivals_ms[1] == plan.resume_ms

    def test_double_initial_at_page_edge(self):
        scheme = SubpagePipelining(double_initial=True, pipeline_count=0)
        plan = place(scheme, subpage=0, block=0)
        assert plan.arrivals_ms[1] == plan.resume_ms

    def test_single_subpage_page_degenerates(self):
        plan = place(
            SubpagePipelining(), subpage_bytes=8192, subpage=0, block=0
        )
        assert plan.resume_ms == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SubpagePipelining(pipeline_count=-1)
        with pytest.raises(ConfigError):
            SubpagePipelining(segment_subpages=0)
        with pytest.raises(ConfigError):
            SubpagePipelining(interrupt_ms=-1)

    def test_label(self):
        assert SubpagePipelining().label(1024, 8192) == "pl_1024"


class TestRegistry:
    def test_names(self):
        assert set(scheme_names()) == {
            "fullpage", "lazy", "eager", "pipelined", "adaptive",
        }

    def test_make_by_name_with_kwargs(self):
        scheme = make_scheme("pipelined", pipeline_count=4)
        assert scheme.pipeline_count == 4

    def test_passthrough(self):
        scheme = EagerFullPageFetch()
        assert make_scheme(scheme) is scheme

    def test_passthrough_rejects_kwargs(self):
        with pytest.raises(ConfigError):
            make_scheme(EagerFullPageFetch(), foo=1)

    def test_unknown(self):
        with pytest.raises(UnknownSchemeError):
            make_scheme("teleport")


class NegativeWireLatency(FixedLatencyModel):
    def wire_time_ms(self, size_bytes: int) -> float:
        return -1.0


class TestPlanRowValidation:
    def test_rejects_empty_initial(self):
        with pytest.raises(SchemeError):
            PlanRow(initial=(), latency_ms=1.0, demand_wire_ms=0.1)

    def test_rejects_empty_pipelined_message(self):
        with pytest.raises(SchemeError, match="message"):
            PlanRow(
                initial=(0,),
                latency_ms=1.0,
                demand_wire_ms=0.1,
                groups=((1,), ()),
                step_ms=0.1,
            )

    def test_rejects_negative_wire(self):
        with pytest.raises(SchemeError):
            PlanRow(initial=(0,), latency_ms=1.0, demand_wire_ms=-0.1)
        with pytest.raises(SchemeError):
            PlanRow(
                initial=(0,),
                latency_ms=1.0,
                demand_wire_ms=0.1,
                request_fixed_ms=0.25,
                background_wire_ms=-0.1,
            )

    def test_rejects_negative_cpu_overhead(self):
        with pytest.raises(SchemeError):
            PlanRow(
                initial=(0,),
                latency_ms=1.0,
                demand_wire_ms=0.1,
                cpu_overhead_ms=-0.1,
            )

    @pytest.mark.parametrize("name", ["fullpage", "lazy", "eager",
                                      "pipelined"])
    def test_latency_model_with_negative_wire_is_refused(self, name):
        # Latency models are user-supplied: a planner refuses the row.
        with pytest.raises(SchemeError, match="wire"):
            place(make_scheme(name), latency=NegativeWireLatency())
