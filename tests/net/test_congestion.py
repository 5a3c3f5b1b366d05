"""Shared receiver-link congestion model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.congestion import CrossTraffic, LinkModel, PendingArrivals


def pending(arrivals, wire_end):
    """A schedule with one message per ``(subpage, arrival)`` item."""
    return PendingArrivals(
        [(1 << index, arrival) for index, arrival in dict(arrivals).items()],
        wire_end,
    )


def arrivals(p):
    """``p``'s per-subpage arrivals, as a dict."""
    found = {index: p.arrival(index) for index in range(32)}
    return {index: t for index, t in found.items() if t is not None}


def demand(link, ready_ms, wire_ms):
    """A fault that ships no background: its demand transfer alone."""
    return link.fault(ready_ms, wire_ms, None, 0.0, 0.0)


def background(link, ready_ms, wire_ms, p):
    """``p``'s background transfer, ready at ``ready_ms``, on a bare
    link; returns its queueing delay.

    It is a fault whose demand takes no wire time at ``ready_ms``,
    which leaves a bare link exactly as the background alone would,
    plus one counted demand transfer.  On a cross-traffic fabric that
    demand would also preempt every other link, so the fabric tests
    use whole faults instead."""
    return link.fault(ready_ms, 0.0, p, ready_ms, wire_ms) - ready_ms


class TestPendingArrivals:
    def test_shift_after_moves_later_arrivals(self):
        p = pending({0: 1.0, 1: 2.0, 2: 3.0}, wire_end=3.0)
        p.shift_after(1.5, 0.5)
        assert arrivals(p) == {0: 1.0, 1: 2.5, 2: 3.5}
        assert p.wire_end_ms == 3.5

    def test_shift_ignores_past_wire_end(self):
        p = pending({0: 1.0}, wire_end=1.0)
        p.shift_after(2.0, 1.0)
        assert p.wire_end_ms == 1.0

    def test_latest(self):
        p = pending({0: 1.0, 5: 4.0}, wire_end=4.0)
        assert p.latest() == 4.0

    def test_empty_raises(self):
        with pytest.raises(SimulationError):
            PendingArrivals().latest()

    def test_negative_shift_rejected(self):
        with pytest.raises(SimulationError):
            pending({0: 1.0}, 1.0).shift_after(0.0, -1.0)

    @given(
        arrivals=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=1e6, max_value=1e15),
            ),
            max_size=8,
        ),
        data=st.data(),
    )
    def test_cached_latest_is_exact(self, arrivals, data):
        """The cached latest arrival tracks any sequence of shifts, to
        the bit: shifts from exactly an arrival's time, and shifts too
        small to move a large arrival, included."""
        p = pending(enumerate(arrivals), wire_end=0.0)
        deltas = st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-12, max_value=1e-3),
            st.floats(min_value=0.0, max_value=100.0),
        )
        for _ in range(data.draw(st.integers(0, 12))):
            delta_ms = data.draw(deltas)
            if data.draw(st.booleans()):
                p.shift_all(delta_ms)
            else:
                times = st.floats(min_value=0.0, max_value=1e15)
                if p.arrivals_ms:
                    times |= st.sampled_from(list(p.arrivals_ms))
                p.shift_after(data.draw(times), delta_ms)
            if arrivals:
                assert p.latest() == max(p.arrivals_ms)
            else:
                with pytest.raises(SimulationError):
                    p.latest()


class TestLinkModel:
    def test_idle_background_not_delayed(self):
        link = LinkModel()
        p = pending({1: 2.0}, wire_end=2.0)
        delay = background(link, 1.0, 1.0, p)
        assert delay == 0.0
        assert p.arrival(1) == 2.0

    def test_busy_background_queues(self):
        link = LinkModel()
        p1 = pending({1: 2.0}, wire_end=2.0)
        background(link, 1.0, 1.0, p1)  # busy until 2.0
        p2 = pending({1: 2.5}, wire_end=2.5)
        delay = background(link, 1.5, 1.0, p2)
        assert delay == pytest.approx(0.5)
        assert p2.arrival(1) == pytest.approx(3.0)
        assert link.total_queueing_delay_ms == pytest.approx(0.5)

    def test_demand_preempts_in_flight_background(self):
        link = LinkModel()
        p = pending({1: 2.0, 2: 3.0}, wire_end=3.0)
        background(link, 1.0, 2.0, p)
        demand(link, 1.5, 0.4)
        # Arrivals after 1.5 pushed back by the demand wire time.
        assert p.arrival(1) == pytest.approx(2.4)
        assert p.arrival(2) == pytest.approx(3.4)
        assert link.total_preemption_delay_ms == pytest.approx(0.4)

    def test_demand_ignores_finished_background(self):
        link = LinkModel()
        p = pending({1: 2.0}, wire_end=2.0)
        background(link, 1.0, 1.0, p)
        demand(link, 5.0, 1.0)
        assert p.arrival(1) == 2.0  # transfer already done

    def test_demand_never_delayed(self):
        # Demand transfers have priority: the model exposes no delay for
        # them, only counts them.
        link = LinkModel()
        assert demand(link, 0.0, 1.0) is None
        assert demand(link, 0.1, 1.0) is None
        assert link.demand_transfers == 2

    def test_busy_until_tracks_everything(self):
        link = LinkModel()
        demand(link, 0.0, 1.0)
        assert link.busy_until_ms == pytest.approx(1.0)
        p = pending({1: 3.0}, wire_end=3.0)
        background(link, 0.5, 1.5, p)  # starts at 1.0, ends 2.5
        assert link.busy_until_ms == pytest.approx(2.5)

    def test_transfer_counts(self):
        link = LinkModel()
        link.fault(0.0, 0.1, pending({1: 1.0}, 1.0), 0.1, 0.1)
        assert link.demand_transfers == 1
        assert link.background_transfers == 1

    def test_negative_wire_rejected(self):
        link = LinkModel()
        with pytest.raises(SimulationError):
            demand(link, 0.0, -1.0)
        with pytest.raises(SimulationError):
            link.fault(0.0, 0.1, pending({1: 1.0}, 1.0), 0.1, -1.0)

    def test_multiple_backgrounds_fifo(self):
        link = LinkModel()
        waits = []
        for i in range(3):
            p = pending({1: 1.0 + i}, wire_end=1.0 + i)
            waits.append(background(link, 0.0, 1.0, p))
        assert waits == [0.0, pytest.approx(1.0), pytest.approx(2.0)]


class TestDemandPreemptionAccounting:
    """Demand preemption over in-flight backgrounds, including the
    empty-schedule case (all arrivals already folded by the simulator)."""

    def test_empty_schedule_background_then_demand(self):
        link = LinkModel()
        p = PendingArrivals((), wire_end_ms=2.0)
        assert background(link, 1.0, 1.0, p) == 0.0
        demand(link, 1.5, 0.5)  # must not raise on the empty schedule
        assert p.wire_end_ms == pytest.approx(2.5)
        assert link.total_preemption_delay_ms == pytest.approx(0.5)

    def test_empty_schedule_queueing_shifts_wire_end(self):
        link = LinkModel()
        demand(link, 0.0, 1.0)  # busy until 1.0
        p = PendingArrivals((), wire_end_ms=1.5)
        delay = background(link, 0.5, 1.0, p)
        assert delay == pytest.approx(0.5)
        assert p.wire_end_ms == pytest.approx(2.0)

    def test_preemption_accounting_sums_across_flights(self):
        link = LinkModel()
        p1 = pending({1: 2.0}, wire_end=2.0)
        background(link, 0.0, 2.0, p1)
        p2 = pending({1: 4.0}, wire_end=4.0)
        background(link, 0.0, 2.0, p2)  # queues behind p1 (+2.0)
        assert p2.arrival(1) == pytest.approx(6.0)
        demand(link, 1.0, 0.5)
        assert p1.arrival(1) == pytest.approx(2.5)
        assert p2.arrival(1) == pytest.approx(6.5)
        assert link.total_preemption_delay_ms == pytest.approx(1.0)
        assert link.total_queueing_delay_ms == pytest.approx(2.0)


class TestShiftAll:
    """Queueing a not-yet-started transfer slides its *whole* schedule.

    Regression: the link's background transfer used
    ``shift_after(0.0, delay)``
    to apply queueing delay, whose strict ``arrival > 0.0`` comparison
    never moved an arrival stamped exactly at time zero — a fault at
    clock 0 saw its follow-on subpage "arrive" before the link was free.
    """

    def test_shift_all_moves_time_zero_arrival(self):
        p = pending({0: 0.0, 1: 1.0}, wire_end=2.0)
        p.shift_all(1.5)
        assert arrivals(p) == {0: 1.5, 1: 2.5}
        assert p.wire_end_ms == pytest.approx(3.5)

    def test_shift_all_negative_rejected(self):
        with pytest.raises(SimulationError):
            pending({0: 1.0}, 1.0).shift_all(-0.1)

    def test_queued_zero_time_arrival_waits_for_link(self):
        # Hand-computed: a demand transfer at t=0 occupies the wire for
        # 1.5 ms.  A background transfer also ready at t=0 nominally
        # delivers subpage 0 instantly (arrival 0.0) and subpage 1 at
        # 1.0; queued behind the demand it starts at 1.5, so every
        # arrival — including the time-zero one — slides by 1.5.
        link = LinkModel()
        p = pending({0: 0.0, 1: 1.0}, wire_end=2.0)
        start = link.fault(0.0, 1.5, p, 0.0, 2.0)
        assert start == pytest.approx(1.5)
        assert p.arrival(0) == pytest.approx(1.5)  # not 0.0
        assert p.arrival(1) == pytest.approx(2.5)
        assert p.wire_end_ms == pytest.approx(3.5)
        assert link.total_queueing_delay_ms == pytest.approx(1.5)

    def test_demand_keeps_partial_shift(self):
        # Contrast case: preemption of an *in-flight* transfer must keep
        # using shift_after — arrivals already delivered do not move.
        link = LinkModel()
        p = pending({0: 0.5, 1: 2.0}, wire_end=2.0)
        background(link, 0.0, 2.0, p)
        demand(link, 1.0, 0.4)
        assert p.arrival(0) == pytest.approx(0.5)  # already arrived
        assert p.arrival(1) == pytest.approx(2.4)


class TestCrossTraffic:
    """Shared-fabric coupling between concurrent tenants' links."""

    def pair(self):
        fabric = CrossTraffic()
        a = LinkModel(fabric=fabric, label="a")
        b = LinkModel(fabric=fabric, label="b")
        return fabric, a, b

    def test_demand_preempts_other_links_backgrounds(self):
        _, a, b = self.pair()
        # b's fault: demand on the wire 0.5-1.0, background 1.0-2.0.
        p = pending({1: 2.0}, wire_end=2.0)
        b.fault(0.5, 0.5, p, 1.0, 1.0)
        demand(a, 1.5, 0.4)
        assert p.arrival(1) == pytest.approx(2.4)
        assert (b.cross_preempts, b.cross_occupies) == (1, 0)
        assert b.cross_preemption_delay_ms == pytest.approx(0.4)
        # The victim's own preemption counter is untouched.
        assert b.total_preemption_delay_ms == 0.0
        # a saw b's demand and background, with nothing of its own to
        # shift or queue.
        assert (a.cross_preempts, a.cross_occupies) == (1, 1)
        assert a.cross_preemption_delay_ms == 0.0

    def test_background_occupies_other_links(self):
        _, a, b = self.pair()
        # a's fault: demand on the wire 0.0-0.5, background 0.5-2.5.
        a.fault(0.0, 0.5, pending({1: 2.5}, wire_end=2.5), 0.5, 2.0)
        assert (b.cross_preempts, b.cross_occupies) == (1, 1)
        assert b.busy_until_ms == pytest.approx(2.5)
        # b's fault at 1.0: its demand (1.0-1.25) pushes the shared
        # wire to 2.75, and its background, ready at 1.25, queues
        # behind a's transfer until then.
        p = pending({1: 2.25}, wire_end=2.25)
        start = b.fault(1.0, 0.25, p, 1.25, 1.0)
        assert start == pytest.approx(2.75)
        assert p.arrival(1) == pytest.approx(3.75)
        assert b.total_queueing_delay_ms == pytest.approx(1.5)
        # The whole wait is cross-inflicted: b's own wire was idle.
        assert b.cross_queueing_delay_ms == pytest.approx(1.5)
        # b's demand preempted a's background in flight.
        assert (a.cross_preempts, a.cross_occupies) == (1, 1)
        assert a.cross_preemption_delay_ms == pytest.approx(0.25)

    def test_own_queueing_not_miscounted_as_cross(self):
        _, a, b = self.pair()
        b.fault(0.0, 0.5, pending({1: 2.5}, wire_end=2.5), 0.5, 2.0)
        p = pending({1: 2.25}, wire_end=2.25)
        start = b.fault(1.0, 0.25, p, 1.25, 1.0)
        assert start == pytest.approx(2.75)  # behind b's *own* transfer
        assert b.total_queueing_delay_ms == pytest.approx(1.5)
        assert b.cross_queueing_delay_ms == 0.0
        # Only a saw cross-traffic: both of b's faults.
        assert (b.cross_preempts, b.cross_occupies) == (0, 0)
        assert (a.cross_preempts, a.cross_occupies) == (2, 2)

    def test_injected_ms_attributes_to_source(self):
        fabric, a, b = self.pair()
        a.fault(0.0, 0.5, pending({}, 2.5), 1.0, 1.5)
        demand(b, 0.0, 0.25)
        assert fabric.injected_ms["a"] == pytest.approx(2.0)
        assert fabric.injected_ms["b"] == pytest.approx(0.25)

    def test_single_link_fabric_inert(self):
        fabric = CrossTraffic()
        a = LinkModel(fabric=fabric, label="a")
        a.fault(0.0, 1.0, pending({1: 2.0}, 2.0), 0.0, 1.0)
        assert a.cross_preempts == 0
        assert a.cross_occupies == 0
        assert fabric.injected_ms == {}

    def test_fabric_preserves_single_tenant_semantics(self):
        """A link on a one-tenant fabric behaves exactly like a bare
        link — the one-tenant interleaved anchor depends on this."""
        fabric = CrossTraffic()
        coupled = LinkModel(fabric=fabric, label="a")
        bare = LinkModel()
        for link in (coupled, bare):
            p = pending({0: 0.0, 1: 1.0}, wire_end=2.0)
            link.fault(0.0, 1.5, p, 0.0, 2.0)
            assert p.arrival(0) == pytest.approx(1.5)
            demand(link, 2.0, 0.4)
        assert coupled.busy_until_ms == bare.busy_until_ms
        assert (coupled.total_queueing_delay_ms
                == bare.total_queueing_delay_ms)
        assert (coupled.total_preemption_delay_ms
                == bare.total_preemption_delay_ms)

    def test_cross_stats_shape(self):
        _, a, b = self.pair()
        demand(a, 0.0, 1.0)
        stats = b.cross_stats()
        assert stats == {
            "cross_preempts": 1,
            "cross_occupies": 0,
            "cross_preemption_delay_ms": 0.0,
            "cross_queueing_delay_ms": 0.0,
        }

    def test_external_negative_wire_rejected(self):
        _, a, _ = self.pair()
        with pytest.raises(SimulationError):
            a.preempt_external(0.0, -1.0)
