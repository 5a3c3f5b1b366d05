"""The per-subpage schedule and the two-call link, kept as oracles.

Before a fault became one link call over per-message schedules, the
simulator kept one arrival per *subpage* (:class:`SubpageArrivals`)
and made two link calls per fault: ``demand`` for the faulted
subpages, then ``background`` for the rest of the page.  Both are kept
here verbatim, so the differential tests can require the one-pass
:class:`~repro.net.congestion.LinkModel` and the per-message
:class:`~repro.net.congestion.PendingArrivals` to agree with them
float for float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.net.congestion import CrossTraffic, LinkModel


@dataclass(slots=True)
class SubpageArrivals:
    """Mutable per-subpage arrival schedule for one in-flight page."""

    arrival_ms: dict[int, float] = field(default_factory=dict)
    wire_end_ms: float = 0.0
    _latest_ms: float = field(default=0.0, init=False, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        self._latest_ms = max(self.arrival_ms.values(), default=0.0)

    def arrival(self, subpage: int) -> float | None:
        return self.arrival_ms.get(subpage)

    def shift_after(self, time_ms: float, delta_ms: float) -> None:
        """Delay every arrival later than ``time_ms`` by ``delta_ms``."""
        if delta_ms < 0:
            raise SimulationError("cannot shift arrivals backwards")
        for subpage, arrival in self.arrival_ms.items():
            if arrival > time_ms:
                self.arrival_ms[subpage] = arrival + delta_ms
        if self._latest_ms > time_ms:
            self._latest_ms += delta_ms
        if self.wire_end_ms > time_ms:
            self.wire_end_ms += delta_ms

    def shift_all(self, delta_ms: float) -> None:
        """Delay the *entire* schedule — every arrival and the wire end."""
        if delta_ms < 0:
            raise SimulationError("cannot shift arrivals backwards")
        for subpage, arrival in self.arrival_ms.items():
            self.arrival_ms[subpage] = arrival + delta_ms
        self._latest_ms += delta_ms
        self.wire_end_ms += delta_ms

    def latest(self) -> float:
        if not self.arrival_ms:
            raise SimulationError("no pending arrivals")
        return self._latest_ms


def subpage_arrivals(
    follow: tuple[tuple[int, float], ...], wire_end_ms: float
) -> SubpageArrivals:
    """The per-subpage schedule of a placement's per-message ``follow``."""
    arrival_ms = {}
    for mask, arrival in follow:
        for index in range(mask.bit_length()):
            if mask >> index & 1:
                arrival_ms[index] = arrival
    return SubpageArrivals(arrival_ms=arrival_ms, wire_end_ms=wire_end_ms)


class TwoCallLink(LinkModel):
    """The link as two calls per fault: :meth:`demand`, then
    :meth:`background` when the fault ships a rest of page.

    Each transfer is reported to ``on_transfer(kind, start_ms, end_ms,
    page[, queue_delay_ms])`` as it happens, as the link used to
    report it to the instrument's transfer hook.
    """

    def __init__(
        self,
        fabric: CrossTraffic | None = None,
        label: str | None = None,
        on_transfer: Callable[..., None] | None = None,
    ) -> None:
        super().__init__(fabric=fabric, label=label)
        self._on_transfer = on_transfer

    def demand(
        self, ready_ms: float, wire_ms: float, page: int | None = None
    ) -> None:
        if wire_ms < 0:
            raise SimulationError("wire time cannot be negative")
        self.demand_transfers += 1
        self._reap(ready_ms)
        for pending in self._in_flight:
            before = pending.wire_end_ms
            pending.shift_after(ready_ms, wire_ms)
            self.total_preemption_delay_ms += pending.wire_end_ms - before
        if self.busy_until_ms > ready_ms:
            self.busy_until_ms += wire_ms
        self.busy_until_ms = max(self.busy_until_ms, ready_ms + wire_ms)
        if self._fabric is not None:
            if self._own_busy_until > ready_ms:
                self._own_busy_until += wire_ms
            self._own_busy_until = max(self._own_busy_until,
                                       ready_ms + wire_ms)
            self._fabric.on_demand(self, ready_ms, wire_ms)
        if self._on_transfer is not None:
            self._on_transfer("demand", ready_ms, ready_ms + wire_ms, page)

    def background(
        self,
        ready_ms: float,
        wire_ms: float,
        pending: SubpageArrivals,
        page: int | None = None,
    ) -> float:
        if wire_ms < 0:
            raise SimulationError("wire time cannot be negative")
        self.background_transfers += 1
        self._reap(ready_ms)
        start = max(ready_ms, self.busy_until_ms)
        delay = start - ready_ms
        if delay > 0:
            pending.shift_all(delay)
            self.total_queueing_delay_ms += delay
        pending.wire_end_ms = max(pending.wire_end_ms, start + wire_ms)
        self.busy_until_ms = start + wire_ms
        if self._fabric is not None:
            if delay > 0:
                own_start = max(ready_ms, self._own_busy_until)
                self.cross_queueing_delay_ms += start - own_start
            self._own_busy_until = (
                max(ready_ms, self._own_busy_until) + wire_ms
            )
            self._fabric.on_background(self, start, start + wire_ms)
        self._in_flight.append(pending)
        if self._on_transfer is not None:
            self._on_transfer(
                "background", start, start + wire_ms, page, delay
            )
        return delay

    def fault(self, ready_ms, wire_ms, pending, background_ready_ms,
              background_wire_ms, page=None):
        """The simulator's two calls for one fault, as it made them."""
        self.demand(ready_ms, wire_ms, page=page)
        if pending is not None and background_wire_ms > 0:
            self.background(
                background_ready_ms, background_wire_ms, pending, page=page
            )
