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

from typing import Iterable

from repro.errors import SimulationError


class PendingArrivals:
    """Mutable arrival schedule for one in-flight page, one entry per
    message.

    Message ``i`` carries the subpages in ``masks[i]`` (disjoint bit
    masks) and lands at ``arrivals_ms[i]``; :meth:`arrival` looks a
    subpage up.  The link shifts arrival times when demand traffic
    preempts the transfer, and the simulator reads them when the
    program touches subpages.

    The simulator's resident frame (``repro.sim.simulator._Frame``) is
    a subclass: a page carries its own schedule, so a fault allocates
    one object, and :class:`LinkModel`'s in-flight list holds frames.
    A frame whose page has nothing scheduled, or whose schedule has
    folded into the resident page, has ``masks`` ``None``; the link
    may still hold a folded frame until its ``wire_end_ms`` passes and
    keeps shifting it, which only moves times nobody reads any more.

    The latest arrival is cached in ``latest_ms``: the shifts move it
    exactly as they move the arrival it came from (float addition
    rounds monotonically, so no other arrival can overtake it).  Change
    the schedule through :meth:`shift_after` and :meth:`shift_all`
    only.
    """

    __slots__ = ("masks", "arrivals_ms", "wire_end_ms", "latest_ms")

    def __init__(
        self,
        follow: "Iterable[tuple[int, float]]" = (),
        wire_end_ms: float = 0.0,
    ) -> None:
        """``follow`` holds ``(subpage_mask, arrival_ms)`` per message,
        in send order (a :data:`~repro.core.plans.Placement`'s masks
        and arrivals, zipped)."""
        masks = []
        arrivals = []
        for mask, arrival in follow:
            masks.append(mask)
            arrivals.append(arrival)
        self.masks = masks
        self.arrivals_ms = arrivals
        self.wire_end_ms = wire_end_ms
        self.latest_ms = max(arrivals, default=0.0)

    def arrival(self, subpage: int) -> float | None:
        """When ``subpage`` lands, or ``None`` if no message carries it."""
        bit = 1 << subpage
        index = 0
        for mask in self.masks:
            if mask & bit:
                return self.arrivals_ms[index]
            index += 1
        return None

    def shift_after(self, time_ms: float, delta_ms: float) -> None:
        """Delay every arrival later than ``time_ms`` by ``delta_ms``."""
        if delta_ms < 0:
            raise SimulationError("cannot shift arrivals backwards")
        arrivals = self.arrivals_ms
        for index, arrival in enumerate(arrivals):
            if arrival > time_ms:
                arrivals[index] = arrival + delta_ms
        if self.latest_ms > time_ms:
            self.latest_ms += delta_ms
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
        self.arrivals_ms = [
            arrival + delta_ms for arrival in self.arrivals_ms
        ]
        self.latest_ms += delta_ms
        self.wire_end_ms += delta_ms

    def latest(self) -> float:
        if not self.masks:
            raise SimulationError("no pending arrivals")
        return self.latest_ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PendingArrivals({list(zip(self.masks, self.arrivals_ms))!r}, "
            f"wire_end_ms={self.wire_end_ms!r})"
        )


class LinkModel:
    """The faulting node's shared receive link.

    Each fault reaches the link in one call, :meth:`fault`: its demand
    transfer, then its background transfer if it ships one.  The link
    reports no events itself: the simulator passes each fault's
    transfers to the instrument's ``on_fault`` hook.

    An optional :class:`CrossTraffic` ``fabric`` couples several tenants'
    links through one shared wire: every transfer this link carries is
    echoed to the other registered links (their background traffic
    queues behind it), and their transfers land here via
    :meth:`preempt_external` / :meth:`occupy_external`.  Without a
    fabric the behavior is exactly the single-tenant model.
    """

    def __init__(
        self,
        fabric: "CrossTraffic | None" = None,
        label: str | None = None,
    ) -> None:
        #: When the wire falls idle, all traffic scheduled so far
        #: included (read-only outside the link).
        self.busy_until_ms = 0.0
        #: What ``busy_until_ms`` would be from this tenant's own traffic
        #: alone; the gap between the two at schedule time is the share
        #: of queueing delay attributable to cross-traffic.
        self._own_busy_until = 0.0
        #: Schedules whose wire time has not ended: the simulator's
        #: frames, each at most once.
        self._in_flight: list[PendingArrivals] = []
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

    def fault(
        self,
        ready_ms: float,
        wire_ms: float,
        pending: PendingArrivals | None,
        background_ready_ms: float,
        background_wire_ms: float,
    ) -> float | None:
        """Account one fault's transfers; returns when the background
        transfer starts on the wire (``None`` without one).  It waits
        ``start - background_ready_ms`` in the queue and holds the wire
        until ``start + background_wire_ms``.

        The demand transfer (ready at ``ready_ms``, ``wire_ms`` on the
        wire) is never delayed: the program is blocked on it and it has
        priority, so every in-flight background arrival after its start
        is pushed back by its wire time instead.

        With a ``pending`` schedule and a positive
        ``background_wire_ms``, the background transfer follows: its
        nominal schedule (arrival times assuming an idle link) is
        already written in ``pending``, and if the link is busy at
        ``background_ready_ms`` the whole schedule slides back by the
        wait.  The link then tracks it until its wire end; ``pending``
        (in the simulator, the faulting page's frame) must not be in
        flight already.

        One pass over the in-flight schedules drops those done by the
        demand's start, shifts the rest, and drops those done by the
        background's start.
        """
        if wire_ms < 0 or background_wire_ms < 0:
            raise SimulationError("wire time cannot be negative")
        self.demand_transfers += 1
        background = pending is not None and background_wire_ms > 0
        in_flight = self._in_flight
        if in_flight:
            kept = []
            preempted = self.total_preemption_delay_ms
            for other in in_flight:
                before = other.wire_end_ms
                if before > ready_ms:
                    other.shift_after(ready_ms, wire_ms)
                    after = other.wire_end_ms
                    preempted += after - before
                    if not background or after > background_ready_ms:
                        kept.append(other)
            self._in_flight = in_flight = kept
            self.total_preemption_delay_ms = preempted
        end = ready_ms + wire_ms
        busy = self.busy_until_ms
        if busy > ready_ms:
            # The preempted background traffic finishes later too.
            busy += wire_ms
        if end > busy:
            busy = end
        fabric = self._fabric
        if fabric is not None:
            own = self._own_busy_until
            if own > ready_ms:
                own += wire_ms
            self._own_busy_until = own if own > end else end
            fabric.on_demand(self, ready_ms, wire_ms)
        if not background:
            self.busy_until_ms = busy
            return None

        self.background_transfers += 1
        start = busy if busy > background_ready_ms else background_ready_ms
        delay = start - background_ready_ms
        if delay > 0:
            pending.shift_all(delay)
            self.total_queueing_delay_ms += delay
        end = start + background_wire_ms
        if end > pending.wire_end_ms:
            pending.wire_end_ms = end
        self.busy_until_ms = end
        if fabric is not None:
            own = self._own_busy_until
            own_start = own if own > background_ready_ms else (
                background_ready_ms
            )
            if delay > 0:
                # The share of the wait this tenant's own traffic cannot
                # explain was inflicted by cross-traffic on the fabric.
                self.cross_queueing_delay_ms += start - own_start
            self._own_busy_until = own_start + background_wire_ms
            fabric.on_background(self, start, end)
        in_flight.append(pending)
        return start

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
        if self.busy_until_ms > ready_ms:
            self.busy_until_ms += wire_ms
        self.busy_until_ms = max(self.busy_until_ms, ready_ms + wire_ms)

    def occupy_external(self, end_ms: float) -> None:
        """Another tenant's background transfer holds the fabric to
        ``end_ms``; this tenant's later background traffic queues behind
        it (in-flight schedules are not shifted — background traffic
        shares the wire FIFO)."""
        self.cross_occupies += 1
        if end_ms > self.busy_until_ms:
            self.busy_until_ms = end_ms

    def cross_stats(self) -> dict[str, float]:
        """Interference received from other tenants on the fabric."""
        return {
            "cross_preempts": self.cross_preempts,
            "cross_occupies": self.cross_occupies,
            "cross_preemption_delay_ms": self.cross_preemption_delay_ms,
            "cross_queueing_delay_ms": self.cross_queueing_delay_ms,
        }


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
