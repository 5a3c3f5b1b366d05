"""Differential tests: per-message schedules and the one-call link.

:class:`~repro.net.congestion.PendingArrivals` keeps one arrival per
message and :meth:`LinkModel.fault <repro.net.congestion.LinkModel.fault>`
handles a fault's demand and background transfers in one pass.  Both
must agree ``==`` with the per-subpage schedule and the two-call link
they replaced (:mod:`tests.net.reference_link`): every arrival, every
counter, every transfer event a recorder emits, on random schedules
and random in-flight sets, with and without a cross-traffic fabric.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fault import KIND_CODES, FaultKind
from repro.errors import SimulationError
from repro.net.congestion import CrossTraffic, LinkModel, PendingArrivals
from repro.obs.instrument import Recorder

from tests.net.reference_link import TwoCallLink, subpage_arrivals

#: Subpages per page at the finest subpage size (256 B of 8K).
SUBPAGES = 32

times = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e6, max_value=1e15),
)
deltas = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e-3),
    st.floats(min_value=0.0, max_value=100.0),
)


@st.composite
def follows(draw, arrivals=times):
    """A placement's ``follow``: up to four messages, disjoint masks."""
    messages = draw(st.integers(0, 4))
    if not messages:
        return ()
    owner = draw(st.lists(st.integers(-1, messages - 1),
                          min_size=SUBPAGES, max_size=SUBPAGES))
    follow = []
    for message in range(messages):
        mask = 0
        for index, owned_by in enumerate(owner):
            if owned_by == message:
                mask |= 1 << index
        if mask:
            follow.append((mask, draw(arrivals)))
    return tuple(follow)


def assert_same_schedule(new, ref):
    for index in range(SUBPAGES):
        assert new.arrival(index) == ref.arrival(index), index
    assert new.wire_end_ms == ref.wire_end_ms
    if ref.arrival_ms:
        assert new.latest() == ref.latest()
    else:
        assert not new.masks
        with pytest.raises(SimulationError):
            new.latest()


class TestScheduleMatchesPerSubpage:
    @given(follow=follows(), wire_end=times, data=st.data())
    @settings(max_examples=300)
    def test_random_shifts_and_merges(self, follow, wire_end, data):
        new = PendingArrivals(follow, wire_end)
        ref = subpage_arrivals(follow, wire_end)
        assert_same_schedule(new, ref)
        for _ in range(data.draw(st.integers(0, 12))):
            if data.draw(st.booleans()):
                # Shift from exactly an arrival or the wire end often:
                # the strict comparison must leave that arrival put.
                origins = st.floats(min_value=0.0, max_value=1e15)
                origins |= st.sampled_from(
                    list(new.arrivals_ms) + [new.wire_end_ms]
                )
                time_ms, delta_ms = data.draw(origins), data.draw(deltas)
                new.shift_after(time_ms, delta_ms)
                ref.shift_after(time_ms, delta_ms)
            else:
                delta_ms = data.draw(deltas)
                new.shift_all(delta_ms)
                ref.shift_all(delta_ms)
            assert_same_schedule(new, ref)

    def test_shift_exactly_at_an_arrival(self):
        follow = ((0b0110, 2.0), (0b1000, 3.0))
        new = PendingArrivals(follow, 3.0)
        ref = subpage_arrivals(follow, 3.0)
        for schedule in (new, ref):
            schedule.shift_after(2.0, 0.5)
        assert_same_schedule(new, ref)
        assert new.arrival(1) == 2.0  # stamped at the origin: stays
        assert new.arrival(3) == 3.5
        assert new.latest() == 3.5


def recorder():
    return Recorder.from_spec("trace,metrics")


def transfers(recorder):
    """The transfer events and transfer metrics ``recorder`` holds."""
    metrics = recorder.metrics.as_dict()
    return (
        [e for e in recorder.trace.events if e["type"] == "transfer"],
        {name: value for name, value in metrics["counters"].items()
         if name.startswith("transfer")},
        metrics["histograms"].get("transfer_wire_ms"),
    )


@st.composite
def link_faults(draw, links=1):
    """A run of faults against ``links`` links: ``(link index, ready,
    wire, page, follow, background ready, background wire)``.

    The clock mostly moves forward, so schedules overlap and pile up
    in flight; a background is sometimes ready before its demand."""
    clock = 0.0
    faults = []
    for _ in range(draw(st.integers(1, 25))):
        clock += draw(st.floats(min_value=0.0, max_value=2.0))
        ready = clock + draw(st.sampled_from([0.0, 0.25]))
        wire = draw(st.floats(min_value=0.0, max_value=1.5))
        if draw(st.booleans()):
            background_ready = ready + wire
        else:
            background_ready = draw(
                st.floats(min_value=0.0, max_value=clock + 3.0)
            )
        background_wire = draw(st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=3.0)
        ))
        arrivals = st.floats(
            min_value=background_ready,
            max_value=background_ready + background_wire + 1.0,
        )
        faults.append((
            draw(st.integers(0, links - 1)),
            ready,
            wire,
            draw(st.integers(0, 7)),
            draw(follows(arrivals)),
            background_ready,
            background_wire,
        ))
    return faults


def link_state(link, schedules):
    in_flight = {id(schedule): index
                 for index, schedule in enumerate(schedules)}
    return (
        link.busy_until_ms,
        link._own_busy_until,
        link.demand_transfers,
        link.background_transfers,
        link.total_queueing_delay_ms,
        link.total_preemption_delay_ms,
        link.cross_stats(),
        [in_flight[id(schedule)] for schedule in link._in_flight],
    )


class TestOneCallMatchesTwoCalls:
    """The one-call link against the two-call link.

    In the ``"recorded"`` scenario each reference link reports its
    transfers to a recorder as they happen, as the link used to; each
    new link's fault, with the background start :meth:`LinkModel.fault`
    returns, goes to a recorder through the one ``on_fault`` call the
    simulator makes.  Both recorders must hold the same transfer events
    in the same order, and the same transfer metrics.
    """

    @pytest.mark.parametrize("kind,links", [
        ("bare", 1), ("fabric", 2), ("fabric", 3), ("recorded", 2),
    ])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_in_flight_sets(self, kind, links, data):
        faults = data.draw(link_faults(links))
        new_fabric = CrossTraffic() if kind == "fabric" else None
        ref_fabric = CrossTraffic() if kind == "fabric" else None
        new_recorders = [recorder() for _ in range(links)]
        ref_recorders = [recorder() for _ in range(links)]
        new_links = [
            LinkModel(fabric=new_fabric, label=f"t{index}")
            for index in range(links)
        ]
        ref_links = [
            TwoCallLink(
                fabric=ref_fabric, label=f"t{index}",
                on_transfer=(
                    ref_recorders[index]._transfer
                    if kind == "recorded" else None
                ),
            )
            for index in range(links)
        ]
        new_schedules, ref_schedules = [], []
        for which, ready, wire, page, follow, bg_ready, bg_wire in faults:
            wire_end = bg_ready + bg_wire
            new_pending = ref_pending = None
            if follow:
                new_pending = PendingArrivals(follow, wire_end)
                ref_pending = subpage_arrivals(follow, wire_end)
                new_schedules.append(new_pending)
                ref_schedules.append(ref_pending)
            start = new_links[which].fault(
                ready, wire, new_pending, bg_ready, bg_wire
            )
            ref_links[which].fault(
                ready, wire, ref_pending, bg_ready, bg_wire, page=page
            )
            assert (start is None) == (follow == () or bg_wire <= 0)
            if kind == "recorded":
                new_recorders[which].on_fault(
                    page, 0, KIND_CODES[FaultKind.REMOTE], ready, 0.0,
                    ready, ready, 0.0, False, None, False, False,
                    ready, wire, bg_ready, start, bg_wire,
                )
            for new, ref in zip(new_schedules, ref_schedules):
                assert_same_schedule(new, ref)
            for new, ref in zip(new_links, ref_links):
                assert (link_state(new, new_schedules)
                        == link_state(ref, ref_schedules))
        if new_fabric is not None:
            assert new_fabric.injected_ms == ref_fabric.injected_ms
        if kind == "recorded":
            for new, ref in zip(new_recorders, ref_recorders):
                assert transfers(new) == transfers(ref)
            # One demand event per fault, at least.
            assert sum(
                len(transfers(new)[0]) for new in new_recorders
            ) >= len(faults)

    def test_negative_background_wire_rejected(self):
        link = LinkModel()
        with pytest.raises(SimulationError):
            link.fault(0.0, 0.1, PendingArrivals(), 0.1, -1.0)
