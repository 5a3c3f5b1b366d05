"""Compiled plan rows against the from-scratch reference planning.

Every built-in scheme answers faults from memoized
:class:`~repro.core.plans.PlanRow` objects.  These tests hold them to
the oracle in :mod:`tests.core.reference_planning`: a compiled plan is
``==`` to the reference plan (resume, every arrival, wire fields, CPU
overhead), and a whole simulation planned through the reference is
``==`` to one planned from rows.  The single-loop golden digests
(``tests/sim/test_engine_equivalence.py``) pin whatever the rows
produce; only this oracle says the rows are right.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import FaultContext
from repro.core.schemes import make_scheme
from repro.core.sequencers import DistanceSequencer
from repro.errors import SchemeError
from repro.net.calibration import PAPER_PIPELINE_INTERRUPT_MS
from repro.net.latency import (
    AnalyticLatencyModel,
    CalibratedLatencyModel,
    FixedOverheadLatencyModel,
    ScaledLatencyModel,
)
from repro.policy.adaptive import AdaptiveScheme
from repro.policy.predictors import Prediction, StaticNeighborPredictor
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.simulator import simulate
from repro.units import MIN_SUBPAGE_BYTES

from tests.core.reference_planning import (
    ReferencePlanning,
    pipelined,
    reference_plan,
)
from tests.sim.test_engine_equivalence import (  # noqa: F401  (fixture)
    SCHEME_CELLS,
    mixed_trace,
)

INTERRUPTS = [0.0, *PAPER_PIPELINE_INTERRUPT_MS.values()]


def latency_models(page_bytes: int):
    calibrated = CalibratedLatencyModel(page_bytes=page_bytes)
    return st.sampled_from([
        calibrated,
        AnalyticLatencyModel(page_bytes=page_bytes),
        ScaledLatencyModel(calibrated, 4.0),
        ScaledLatencyModel(calibrated, 0.5),
        FixedOverheadLatencyModel(calibrated, 0.0),
        FixedOverheadLatencyModel(calibrated, 3.0),
    ])


#: Fault times: the start of a run, ordinary times, and times large
#: enough that adding a short step can round to nothing.
NOW = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=1e6, max_value=1e15),
)


@st.composite
def faults(draw):
    page_bytes = draw(st.sampled_from([4096, 8192]))
    subpage_bytes = draw(
        st.sampled_from([s for s in (256, 512, 1024, 2048, 4096, 8192)
                         if s <= page_bytes])
    )
    spp = page_bytes // subpage_bytes
    faulted = draw(st.integers(min_value=0, max_value=spp - 1))
    blocks = subpage_bytes // MIN_SUBPAGE_BYTES
    block = faulted * blocks + draw(st.integers(0, blocks - 1))
    latency = draw(latency_models(page_bytes))
    return [
        FaultContext(
            now_ms=now,
            page=draw(st.integers(min_value=0, max_value=1 << 20)),
            faulted_subpage=faulted,
            faulted_block=block,
            subpage_bytes=subpage_bytes,
            page_bytes=page_bytes,
            latency=latency,
        )
        for now in draw(st.lists(NOW, min_size=1, max_size=3))
    ]


@st.composite
def sequencers(draw):
    kind = draw(st.sampled_from(["neighbor", "ascending", "distance"]))
    if kind != "distance":
        return kind
    profile = draw(st.dictionaries(
        st.integers(-31, 31).filter(bool),
        st.floats(min_value=0.0, max_value=1.0),
        max_size=6,
    ))
    return DistanceSequencer(profile)


@st.composite
def schemes(draw):
    name = draw(st.sampled_from(["fullpage", "lazy", "eager",
                                 "pipelined"]))
    if name != "pipelined":
        return make_scheme(name)
    return make_scheme(
        name,
        sequencer=draw(sequencers()),
        pipeline_count=draw(st.integers(0, 4)),
        segment_subpages=draw(st.integers(1, 3)),
        interrupt_ms=draw(st.sampled_from(INTERRUPTS)),
        double_initial=draw(st.booleans()),
    )


class TestRowsMatchReference:
    @given(scheme=schemes(), contexts=faults())
    @settings(max_examples=400, deadline=None)
    def test_plan_fault(self, scheme, contexts):
        # Several fault times per row: the later ones reuse the row.
        for ctx in contexts:
            assert scheme.plan_fault(ctx) == reference_plan(scheme, ctx)

    @given(scheme=schemes(), contexts=faults())
    @settings(max_examples=400, deadline=None)
    def test_planner_placement(self, scheme, contexts):
        ctx = contexts[0]
        plan = scheme.planner(ctx.latency, ctx.subpage_bytes, ctx.page_bytes)
        for ctx in contexts:
            assert plan(
                ctx.now_ms, ctx.page, ctx.faulted_subpage, ctx.faulted_block
            ) == reference_plan(scheme, ctx).placement()

    @given(
        contexts=faults(),
        data=st.data(),
        segment=st.integers(1, 3),
        interrupt=st.sampled_from(INTERRUPTS),
        double=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_with_order(
        self, contexts, data, segment, interrupt, double
    ):
        """Externally supplied orders, depths and directions (the
        adaptive layer's entry point)."""
        scheme = make_scheme(
            "pipelined",
            segment_subpages=segment,
            interrupt_ms=interrupt,
            double_initial=double,
        )
        ctx = contexts[0]
        others = [
            i for i in range(ctx.subpages_per_page)
            if i != ctx.faulted_subpage
        ]
        order = data.draw(st.permutations(others))
        depth = data.draw(st.integers(0, 4))
        direction = data.draw(st.sampled_from([-1, 0, 1]))
        for ctx in contexts:
            assert scheme.plan_with_order(
                ctx, order, pipeline_count=depth, direction=direction
            ) == pipelined(
                scheme, ctx, order, pipeline_count=depth,
                direction=direction,
            )


class TestMemo:
    def test_rows_are_built_once(self):
        scheme = make_scheme("pipelined")
        latency = CalibratedLatencyModel()
        plan = scheme.planner(latency, 1024, 8192)
        for now in (0.0, 1.0, 2.0):
            plan(now, 5, 3, 12)
        table = scheme.plan_table(latency, 1024, 8192)
        assert len(table.rows) == 1

    def test_pickle_drops_the_memo(self):
        scheme = make_scheme("eager")
        latency = CalibratedLatencyModel()
        ctx = FaultContext(
            now_ms=1.0, page=0, faulted_subpage=2, faulted_block=8,
            subpage_bytes=1024, page_bytes=8192, latency=latency,
        )
        before = scheme.plan_fault(ctx)
        clone = pickle.loads(pickle.dumps(scheme))
        assert "_plan_tables" not in vars(clone)
        assert clone.plan_fault(ctx) == before


class TestCollapsedSteps:
    """At a large fault time a pipelined step can round to nothing: the
    message then arrives exactly at resume, and its subpages are valid
    at once.  The partition compares absolute times, so it sees that."""

    @pytest.mark.parametrize("now", [0.0, 1e15])
    def test_partition_at_absolute_times(self, now):
        scheme = make_scheme("pipelined", pipeline_count=2)
        latency = CalibratedLatencyModel()
        ctx = FaultContext(
            now_ms=now, page=0, faulted_subpage=3, faulted_block=12,
            subpage_bytes=1024, page_bytes=8192, latency=latency,
        )
        reference = pipelined(scheme, ctx)
        placement = scheme.planner(latency, 1024, 8192)(now, 0, 3, 12)
        assert placement == reference.placement()
        resume, valid_bits, follow = placement[:3]
        collapsed = reference.arrivals_ms[4] == resume
        assert collapsed is (now > 0.0)
        assert bool(valid_bits >> 4 & 1) is collapsed
        assert (4 in follow) is not collapsed


class TestSimulationMatchesReference:
    """Whole runs planned through the reference, fault for fault."""

    @pytest.mark.parametrize("scheme,subpage", SCHEME_CELLS)
    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("backing", ["remote", "cluster"])
    def test_cell(self, mixed_trace, scheme, subpage, fraction, backing):
        config = SimulationConfig(
            memory_pages=memory_pages_for(mixed_trace, fraction),
            scheme=scheme,
            subpage_bytes=subpage,
            backing=backing,
            track_distances=False,
        )
        reference = config.with_overrides(
            scheme=ReferencePlanning(config.build_scheme())
        )
        assert simulate(mixed_trace, config) == simulate(
            mixed_trace, reference
        )

    def test_pipelined_variants(self, mixed_trace):
        kwargs = dict(
            pipeline_count=3,
            segment_subpages=2,
            interrupt_ms=PAPER_PIPELINE_INTERRUPT_MS[1024],
            double_initial=True,
        )
        config = SimulationConfig(
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            scheme="pipelined",
            scheme_kwargs=kwargs,
            subpage_bytes=512,
            track_distances=False,
        )
        reference = config.with_overrides(
            scheme=ReferencePlanning(config.build_scheme()),
            scheme_kwargs={},
        )
        assert simulate(mixed_trace, config) == simulate(
            mixed_trace, reference
        )


class _FixedPredictor(StaticNeighborPredictor):
    """Predicts one fixed order for every fault (a static predictor, so
    the adaptive layer can be transparent over it)."""

    def __init__(self, order: tuple[int, ...]) -> None:
        super().__init__()
        self.fixed = Prediction(order=order, confidence=1.0)

    def predict(self, page, faulted, subpages_per_page):
        return self.fixed


class TestAdaptiveMemoSafety:
    @pytest.mark.parametrize(
        "order",
        [
            (1, 1, 2),  # repeats a subpage
            (0, 1, 2),  # includes the faulting subpage
            (1, 2, 8),  # outside the page
        ],
        ids=["repeat", "faulted", "out-of-range"],
    )
    @pytest.mark.parametrize("scored", [False, True])
    def test_invalid_order_raises_every_time(self, order, scored):
        # switch_schemes turns on the scoreboard path to the rows.
        scheme = AdaptiveScheme(
            predictor=_FixedPredictor(order), switch_schemes=scored
        )
        assert scheme.transparent is not scored
        latency = CalibratedLatencyModel()
        plan = scheme.planner(latency, 1024, 8192)
        ctx = FaultContext(
            now_ms=1.0, page=3, faulted_subpage=0, faulted_block=0,
            subpage_bytes=1024, page_bytes=8192, latency=latency,
        )
        for _ in range(3):
            with pytest.raises(SchemeError):
                plan(1.0, 3, 0, 0)
            with pytest.raises(SchemeError):
                scheme.plan_fault(ctx)

    def test_repeated_prediction_reuses_its_row(self):
        scheme = AdaptiveScheme()
        latency = CalibratedLatencyModel()
        table = scheme.inner.plan_table(latency, 1024, 8192)
        first = scheme.controller.row(table, 7, 3, 12)
        assert scheme.controller.row(table, 9, 3, 13) is first
        assert len(table.rows) == 1
