"""Pipelined-subpage sequencers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequencers import (
    AscendingSequencer,
    DistanceSequencer,
    NeighborSequencer,
    check_follow_on,
    make_sequencer,
)
from repro.errors import ConfigError, SchemeError, UnknownSchemeError


class TestNeighbor:
    def test_paper_order(self):
        # +1 then -1 first: the Figure 7-motivated order of Section 4.3.
        order = NeighborSequencer().order(faulted=3, subpages_per_page=8)
        assert order[:2] == [4, 2]
        assert order[2:4] == [5, 1]

    def test_edge_fault_at_zero(self):
        order = NeighborSequencer().order(0, 4)
        assert order == [1, 2, 3]

    def test_edge_fault_at_end(self):
        order = NeighborSequencer().order(3, 4)
        assert order == [2, 1, 0]


class TestAscending:
    def test_forward_then_backward(self):
        order = AscendingSequencer().order(2, 6)
        assert order == [3, 4, 5, 1, 0]


class TestDistance:
    def test_orders_by_profile(self):
        profile = {-1: 0.5, 1: 0.3, 2: 0.1}
        order = DistanceSequencer(profile).order(4, 8)
        assert order[:3] == [3, 5, 6]

    def test_unprofiled_fall_behind(self):
        profile = {2: 0.9}
        order = DistanceSequencer(profile).order(0, 4)
        assert order[0] == 2
        # Remaining sorted nearest-first.
        assert order[1:] == [1, 3]

    def test_rejects_distance_zero(self):
        with pytest.raises(ConfigError):
            DistanceSequencer({0: 1.0})

    def test_profile_from_figure7_shape(self):
        # A Figure 7-like profile (mass at +1) yields the neighbor order.
        profile = {1: 0.48, -1: 0.08, 2: 0.07, -2: 0.06}
        order = DistanceSequencer(profile).order(3, 8)
        assert order[0] == 4


class TestFollowOnGuard:
    """Regression: follow-on orders naming the faulting subpage used to
    be accepted silently — the scheme then shipped it twice, spending a
    pipeline slot and wire time on data already in flight."""

    def test_accepts_valid_order(self):
        check_follow_on(3, NeighborSequencer().order(3, 8), 8)

    def test_rejects_faulting_subpage(self):
        with pytest.raises(SchemeError, match="double transfer"):
            check_follow_on(3, [4, 3, 2], 8)

    def test_rejects_out_of_range(self):
        with pytest.raises(SchemeError, match="outside"):
            check_follow_on(3, [4, 8], 8)
        with pytest.raises(SchemeError, match="outside"):
            check_follow_on(3, [-1], 8)

    def test_rejects_repeats(self):
        with pytest.raises(SchemeError, match="repeats"):
            check_follow_on(3, [4, 5, 4], 8)

    def test_guard_wired_into_planning(self):
        """A buggy sequencer cannot smuggle a double transfer through
        ``SubpagePipelining`` (this failed before the guard: the plan
        quietly carried the faulted subpage in a pipelined slot)."""
        from repro.core.schemes import SubpagePipelining
        from tests.conftest import place

        class Buggy(NeighborSequencer):
            def order(self, faulted, subpages_per_page):
                return [faulted] + super().order(
                    faulted, subpages_per_page
                )[:-1]

        scheme = SubpagePipelining(sequencer=Buggy())
        with pytest.raises(SchemeError, match="double transfer"):
            place(scheme, subpage=2)


class TestRegistry:
    def test_by_name(self):
        assert isinstance(make_sequencer("neighbor"), NeighborSequencer)
        assert isinstance(make_sequencer("ascending"), AscendingSequencer)

    def test_passthrough(self):
        seq = NeighborSequencer()
        assert make_sequencer(seq) is seq

    def test_unknown(self):
        with pytest.raises(UnknownSchemeError):
            make_sequencer("bogus")


@given(
    faulted=st.integers(min_value=0, max_value=31),
    count=st.integers(min_value=1, max_value=32),
    which=st.sampled_from(["neighbor", "ascending"]),
)
@settings(max_examples=100)
def test_order_is_a_permutation_of_the_rest(faulted, count, which):
    """Every sequencer emits each non-faulted subpage exactly once."""
    faulted = faulted % count
    order = make_sequencer(which).order(faulted, count)
    assert sorted(order) == [i for i in range(count) if i != faulted]


@given(
    faulted=st.integers(min_value=0, max_value=15),
    count=st.integers(min_value=2, max_value=16),
)
@settings(max_examples=60)
def test_distance_sequencer_permutation(faulted, count):
    faulted = faulted % count
    seq = DistanceSequencer({1: 0.5, -1: 0.25})
    order = seq.order(faulted, count)
    assert sorted(order) == [i for i in range(count) if i != faulted]
