"""Access-pattern predictors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequencers import NeighborSequencer, check_follow_on
from repro.errors import UnknownSchemeError
from repro.policy.predictors import (
    StaticNeighborPredictor,
    StrideMajorityPredictor,
    make_predictor,
    predictor_names,
)


def feed(predictor, page, subpages, kind="touch"):
    for sp in subpages:
        predictor.record(page, sp, kind)


class TestRecordBinding:
    """A predictor hands the policy its history's ``record``: one call
    per observation."""

    @pytest.mark.parametrize("name", ["static", "stride"])
    def test_plain_record_binds_the_history(self, name):
        predictor = make_predictor(name)
        assert predictor.record == predictor.history.record
        predictor.record(3, 1, "fault")
        predictor.record(3, 4, "touch")
        predictor.reset()
        predictor.record(3, 2, "touch")
        predictor.record(3, 3, "touch")
        assert predictor.history.deltas(3) == [1]


class TestStatic:
    def test_reproduces_neighbor_order(self):
        p = StaticNeighborPredictor()
        expected = tuple(NeighborSequencer().order(3, 8))
        pred = p.predict(0, 3, 8)
        assert pred.order == expected
        assert pred.confidence == 1.0

    def test_history_blind(self):
        p = StaticNeighborPredictor()
        feed(p, 0, [7, 6, 5, 4])
        assert p.predict(0, 3, 8) == p.predict(1, 3, 8)


class TestStride:
    def test_cold_start_is_neighbor_order(self):
        p = StrideMajorityPredictor()
        pred = p.predict(0, 2, 8)
        assert pred.order == tuple(NeighborSequencer().order(2, 8))
        assert pred.confidence == p.COLD_CONFIDENCE

    def test_unanimous_forward_stride(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [0, 1, 2, 3, 4])
        pred = p.predict(0, 4, 8)
        assert pred.order[:3] == (5, 6, 7)
        assert pred.confidence == 1.0

    def test_backward_stride(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [7, 6, 5, 4])
        pred = p.predict(0, 4, 8)
        assert pred.order[:4] == (3, 2, 1, 0)

    def test_stride_of_two(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [0, 2, 4])
        pred = p.predict(0, 4, 8)
        assert pred.order[0] == 6

    def test_majority_beats_minority(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [0, 1, 2, 3, 7, 6])  # four +1 moves, +4 and -1 noise
        pred = p.predict(0, 2, 8)
        assert pred.order[0] == 3
        assert 0.0 < pred.confidence < 1.0

    def test_single_delta_confidence_is_half(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [0, 1])
        assert p.predict(0, 1, 8).confidence == 0.5

    def test_per_page_isolation(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [0, 1, 2, 3])
        assert p.predict(1, 2, 8).confidence == p.COLD_CONFIDENCE

    def test_order_is_valid_follow_on(self):
        p = StrideMajorityPredictor()
        feed(p, 0, [0, 3, 6])
        pred = p.predict(0, 6, 8)
        check_follow_on(6, list(pred.order), 8)
        assert sorted(pred.order) == [i for i in range(8) if i != 6]

    def test_window_bounds_the_vote(self):
        p = StrideMajorityPredictor()
        # Four -1 moves, then three +1 moves: over all seven the -1s
        # would win, but the vote sees only the last WINDOW (six), a
        # 3-3 tie the forward stride breaks.
        feed(p, 0, [7, 6, 5, 4, 3, 4, 5, 6])
        assert len(p.history.deltas(0)) == 7
        pred = p.predict(0, 3, 8)
        assert pred.confidence == 0.5
        assert pred.order[0] == 4


class TestRegistry:
    def test_names(self):
        assert predictor_names() == ("static", "stride")

    @pytest.mark.parametrize("name", ["static", "stride"])
    def test_builds_by_name(self, name):
        assert make_predictor(name).name == name

    def test_passthrough(self):
        p = StaticNeighborPredictor()
        assert make_predictor(p) is p

    def test_unknown_lists_names(self):
        with pytest.raises(UnknownSchemeError, match="static"):
            make_predictor("bogus")


@given(
    touches=st.lists(
        st.integers(min_value=0, max_value=7), min_size=0, max_size=20
    ),
    faulted=st.integers(min_value=0, max_value=7),
    name=st.sampled_from(["static", "stride"]),
)
@settings(max_examples=120)
def test_predictions_always_satisfy_the_sequencer_contract(
    touches, faulted, name
):
    """Whatever history a predictor saw, its order is a permutation of
    the page's other subpages — enforceable by ``check_follow_on``."""
    predictor = make_predictor(name)
    for sp in touches:
        predictor.record(0, sp, "touch")
    pred = predictor.predict(0, faulted, 8)
    check_follow_on(faulted, list(pred.order), 8)
    assert sorted(pred.order) == [i for i in range(8) if i != faulted]
    assert 0.0 <= pred.confidence <= 1.0
