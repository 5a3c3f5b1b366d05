"""Shared receiver-link congestion with demand priority.

The paper's simulator "models congestion delays in the network"
(Section 3.2).  In a switched ATM fabric the resource that transfers to
one faulting node actually share is that node's receiving link.  Two kinds
of traffic use it:

* **demand** transfers — the faulted subpage the program is blocked on;
* **background** transfers — the rest-of-page (or pipelined follow-on
  subpages) that eager fullpage fetch ships behind the demand subpage.

Per-VC cell scheduling lets a demand transfer effectively preempt an
in-flight background transfer, so we model the link as: background
transfers queue FIFO behind whatever is scheduled; a demand transfer
starts immediately and pushes every in-flight background arrival back by
its own wire time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Instrument


@dataclass(slots=True)
class PendingArrivals:
    """Mutable per-subpage arrival schedule for one in-flight page.

    The simulator and the link model share this object: the link shifts
    arrival times when demand traffic preempts the transfer, and the
    simulator reads arrival times when the program touches subpages.

    An empty ``arrival_ms`` schedule is legal (every arrival may already
    have been folded into the resident page, or a transfer may carry no
    subpage deadlines at all): :meth:`shift_after` and the
    :class:`LinkModel` then only track ``wire_end_ms``.  Only
    :meth:`latest` requires a non-empty schedule; call sites must check
    ``arrival_ms`` first.

    The latest arrival is cached: the shifts move it exactly as they
    move the arrival it came from (float addition rounds monotonically,
    so no other arrival can overtake it).  Change the schedule through
    :meth:`shift_after`, :meth:`shift_all` and :meth:`merge` only.
    """

    arrival_ms: dict[int, float] = field(default_factory=dict)
    wire_end_ms: float = 0.0
    _latest_ms: float = field(default=0.0, init=False, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        self._latest_ms = max(self.arrival_ms.values(), default=0.0)

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
        """Delay the *entire* schedule — every arrival and the wire end.

        Queueing a not-yet-started transfer must slide its whole
        schedule; :meth:`shift_after` cannot express that, because its
        strict ``arrival > time_ms`` comparison never moves an arrival
        stamped exactly at the shift origin (a fault at clock 0 would
        see its follow-on subpage arrive before the link is free).
        """
        if delta_ms < 0:
            raise SimulationError("cannot shift arrivals backwards")
        for subpage, arrival in self.arrival_ms.items():
            self.arrival_ms[subpage] = arrival + delta_ms
        self._latest_ms += delta_ms
        self.wire_end_ms += delta_ms

    def merge(self, other: "PendingArrivals") -> None:
        """Fold ``other``'s schedule into this one (``other``'s arrival
        wins for a subpage both carry)."""
        self.arrival_ms.update(other.arrival_ms)
        self._latest_ms = max(self.arrival_ms.values(), default=0.0)
        self.wire_end_ms = max(self.wire_end_ms, other.wire_end_ms)

    def latest(self) -> float:
        if not self.arrival_ms:
            raise SimulationError("no pending arrivals")
        return self._latest_ms


class LinkModel:
    """The faulting node's shared receive link.

    An optional :class:`~repro.obs.instrument.Instrument` receives an
    ``on_transfer`` event per demand/background transfer; ``None`` (the
    default) costs a single branch per transfer.

    An optional :class:`CrossTraffic` ``fabric`` couples several tenants'
    links through one shared wire: every transfer this link carries is
    echoed to the other registered links (their background traffic
    queues behind it), and their transfers land here via
    :meth:`preempt_external` / :meth:`occupy_external`.  Without a
    fabric the behavior is exactly the single-tenant model.
    """

    def __init__(
        self,
        instrument: "Instrument | None" = None,
        fabric: "CrossTraffic | None" = None,
        label: str | None = None,
    ) -> None:
        self._busy_until = 0.0
        #: What ``_busy_until`` would be from this tenant's own traffic
        #: alone; the gap between the two at schedule time is the share
        #: of queueing delay attributable to cross-traffic.
        self._own_busy_until = 0.0
        self._in_flight: list[PendingArrivals] = []
        #: The instrument's transfer hook, bound once (called per
        #: transfer, positionally: the cheapest dispatch).
        self._on_transfer = (
            instrument.on_transfer if instrument is not None else None
        )
        self._fabric: CrossTraffic | None = None
        self.label = label
        #: Total background delay added by queueing (for diagnostics).
        self.total_queueing_delay_ms = 0.0
        #: Total delay pushed onto background transfers by demand traffic.
        self.total_preemption_delay_ms = 0.0
        #: Counts of transfers seen.
        self.demand_transfers = 0
        self.background_transfers = 0
        #: Interference *received* from other tenants' traffic.
        self.cross_preempts = 0
        self.cross_occupies = 0
        self.cross_preemption_delay_ms = 0.0
        self.cross_queueing_delay_ms = 0.0
        if fabric is not None:
            fabric.register(self)

    def _reap(self, now_ms: float) -> None:
        self._in_flight = [
            p for p in self._in_flight if p.wire_end_ms > now_ms
        ]

    def demand(
        self, ready_ms: float, wire_ms: float, page: int | None = None
    ) -> None:
        """Account a demand transfer occupying the wire for ``wire_ms``.

        The demand transfer itself is never delayed (the program is blocked
        on it and it has priority); instead every in-flight background
        arrival after its start is pushed back by its wire time.
        """
        if wire_ms < 0:
            raise SimulationError("wire time cannot be negative")
        self.demand_transfers += 1
        self._reap(ready_ms)
        for pending in self._in_flight:
            before = pending.wire_end_ms
            pending.shift_after(ready_ms, wire_ms)
            self.total_preemption_delay_ms += pending.wire_end_ms - before
        if self._busy_until > ready_ms:
            # The preempted background traffic finishes later too.
            self._busy_until += wire_ms
        self._busy_until = max(self._busy_until, ready_ms + wire_ms)
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
        pending: PendingArrivals,
        page: int | None = None,
    ) -> float:
        """Schedule a background transfer; returns its queueing delay.

        The transfer's nominal schedule is already written in ``pending``
        (arrival times assuming an idle link).  If the link is busy at
        ``ready_ms`` the whole schedule slides back by the wait.
        """
        if wire_ms < 0:
            raise SimulationError("wire time cannot be negative")
        self.background_transfers += 1
        self._reap(ready_ms)
        start = max(ready_ms, self._busy_until)
        delay = start - ready_ms
        if delay > 0:
            pending.shift_all(delay)
            self.total_queueing_delay_ms += delay
        pending.wire_end_ms = max(pending.wire_end_ms, start + wire_ms)
        self._busy_until = start + wire_ms
        if self._fabric is not None:
            if delay > 0:
                # The share of the wait this tenant's own traffic cannot
                # explain was inflicted by cross-traffic on the fabric.
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

    # -- cross-traffic (shared fabric) ------------------------------------

    def preempt_external(self, ready_ms: float, wire_ms: float) -> None:
        """Another tenant's demand transfer claims the shared fabric.

        Same effect as a local demand transfer — in-flight background
        arrivals after its start slide back and the wire stays occupied
        — but the delay is attributed to ``cross_preemption_delay_ms``
        and the tenant's own counters are untouched.
        """
        if wire_ms < 0:
            raise SimulationError("wire time cannot be negative")
        self.cross_preempts += 1
        self._reap(ready_ms)
        for pending in self._in_flight:
            before = pending.wire_end_ms
            pending.shift_after(ready_ms, wire_ms)
            self.cross_preemption_delay_ms += pending.wire_end_ms - before
        if self._busy_until > ready_ms:
            self._busy_until += wire_ms
        self._busy_until = max(self._busy_until, ready_ms + wire_ms)

    def occupy_external(self, end_ms: float) -> None:
        """Another tenant's background transfer holds the fabric to
        ``end_ms``; this tenant's later background traffic queues behind
        it (in-flight schedules are not shifted — background traffic
        shares the wire FIFO)."""
        self.cross_occupies += 1
        if end_ms > self._busy_until:
            self._busy_until = end_ms

    def cross_stats(self) -> dict[str, float]:
        """Interference received from other tenants on the fabric."""
        return {
            "cross_preempts": self.cross_preempts,
            "cross_occupies": self.cross_occupies,
            "cross_preemption_delay_ms": self.cross_preemption_delay_ms,
            "cross_queueing_delay_ms": self.cross_queueing_delay_ms,
        }

    @property
    def busy_until_ms(self) -> float:
        return self._busy_until


class CrossTraffic:
    """Shared-fabric coupling between the links of concurrent tenants.

    Registered links echo every transfer they carry to the fabric, which
    replays it onto every *other* registered link: demand transfers
    preempt (:meth:`LinkModel.preempt_external`), background transfers
    occupy (:meth:`LinkModel.occupy_external`).  With a single
    registered link the fabric is inert, so the one-tenant interleaved
    run stays bit-identical to the sequential path.

    Per-tenant attribution: each link's ``cross_stats()`` reports the
    interference it *received*; :attr:`injected_ms` reports the wire
    time each labelled tenant *caused* on other tenants' links.
    """

    def __init__(self) -> None:
        self._links: list[LinkModel] = []
        #: Wire-time each labelled source pushed onto other links, ms.
        self.injected_ms: dict[str, float] = {}

    def register(self, link: LinkModel) -> None:
        self._links.append(link)
        link._fabric = self

    def _attribute(self, source: LinkModel, wire_ms: float,
                   others: int) -> None:
        if others and source.label is not None:
            self.injected_ms[source.label] = (
                self.injected_ms.get(source.label, 0.0)
                + wire_ms * others
            )

    def on_demand(
        self, source: LinkModel, ready_ms: float, wire_ms: float
    ) -> None:
        others = 0
        for link in self._links:
            if link is not source:
                link.preempt_external(ready_ms, wire_ms)
                others += 1
        self._attribute(source, wire_ms, others)

    def on_background(
        self, source: LinkModel, start_ms: float, end_ms: float
    ) -> None:
        others = 0
        for link in self._links:
            if link is not source:
                link.occupy_external(end_ms)
                others += 1
        self._attribute(source, end_ms - start_ms, others)
