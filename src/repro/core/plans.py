"""Compiled fault plans: the scheme <-> simulator contract.

A scheme's :meth:`~repro.core.schemes.FetchScheme.planner` returns the
per-run :data:`Planner` the simulator calls on every fault.  It answers
with a :data:`Placement` in *idle-network* absolute times; the simulator
then applies congestion (demand priority, background queueing) via
:class:`repro.net.congestion.LinkModel`, which may slide the background
arrivals.

The built-in schemes are fixed policies, so each distinct plan is
compiled once into a :class:`PlanRow` and shifted to every later fault's
time by :func:`row_planner`.  A planner keeps its rows in its own
:class:`PlanTable`, built for the run's latency model, subpage size and
page size.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SchemeError
from repro.net.latency import LatencyModel


#: A planned fault as the simulator executes it, in absolute times:
#: ``(resume_ms, valid_bits, masks, arrivals_ms, demand_wire_ms,
#: background_ready_ms, background_wire_ms, cpu_overhead_ms)``.
#: ``valid_bits`` marks every subpage that has arrived by ``resume_ms``;
#: each message that lands later has its subpage mask in the ``masks``
#: tuple (disjoint masks, in send order) and its idle-network arrival
#: time at the same index of the ``arrivals_ms`` list.  The list is
#: fresh on every call: the simulator's frame adopts it as the page's
#: schedule, and the link shifts it in place.
#:
#: The follow-on messages are either empty or cover every subpage the
#: page does not yet have: lazy fetch sends nothing more, eager fetch
#: and pipelining send the rest of the page.  A subpage the page lacks
#: is thus never touched while a schedule is in flight; the simulator
#: raises :class:`~repro.errors.SchemeError` if it is.
Placement = tuple[
    float, int, tuple[int, ...], list[float], float, float, float, float
]

#: Per-run fault planner: ``(now_ms, page, faulted_subpage,
#: faulted_block) -> Placement``
#: (see :meth:`repro.core.schemes.FetchScheme.planner`).
Planner = Callable[[float, int, int, int], Placement]


class PlanRow:
    """A compiled fault plan: one fault's transfers relative to the fault.

    For a fixed scheme, latency model and subpage size, a plan depends on
    the fault time only through a shift, so the scheme-relative part —
    which subpages travel in which message, and every latency and wire
    time involved — is computed once and kept here.  A
    :func:`row_planner` places it at each fault's time with exactly the
    float operations, in exactly the order, the per-fault arithmetic
    used:

    * ``resume = now + latency``
    * each pipelined message: ``t = t + step`` from ``t = resume``
    * the trailing message: ``(now + rest) + rest_extra``, raised to the
      last pipelined arrival when ``clamp`` is set
    * ``background_ready = (now + request_fixed) + demand_wire``

    so a plan from a row is ``==`` to one planned from scratch.  The
    valid-bit partition compares absolute times, since at a large
    ``now`` rounding can collapse a step to zero.

    Building a row checks that it delivers something, that every
    pipelined message carries a subpage, and that no wire time or CPU
    overhead is negative (latency models are user-supplied),
    so a malformed row raises :class:`SchemeError` and is never cached.
    """

    __slots__ = (
        "initial",
        "initial_mask",
        "group_masks",
        "trailing_mask",
        "follow_masks",
        "latency_ms",
        "step_ms",
        "rest_ms",
        "rest_extra_ms",
        "clamp",
        "demand_wire_ms",
        "background",
        "request_fixed_ms",
        "background_wire_ms",
        "cpu_overhead_ms",
    )

    def __init__(
        self,
        initial: tuple[int, ...],
        latency_ms: float,
        demand_wire_ms: float,
        groups: tuple[tuple[int, ...], ...] = (),
        step_ms: float = 0.0,
        trailing: tuple[int, ...] = (),
        rest_ms: float = 0.0,
        rest_extra_ms: float = 0.0,
        clamp: bool = False,
        request_fixed_ms: float | None = None,
        background_wire_ms: float = 0.0,
        cpu_overhead_ms: float = 0.0,
    ) -> None:
        if not initial:
            raise SchemeError("a transfer plan must deliver something")
        if not all(groups):
            # Each message's mask keeps its place in ``follow_masks``.
            raise SchemeError("a pipelined message must carry a subpage")
        if demand_wire_ms < 0 or background_wire_ms < 0:
            raise SchemeError("wire times cannot be negative")
        if cpu_overhead_ms < 0:
            raise SchemeError("cpu overhead cannot be negative")
        self.initial = initial
        self.initial_mask = _mask(initial)
        #: One subpage mask per pipelined message, in order.
        self.group_masks = tuple(_mask(group) for group in groups)
        #: The trailing remainder's subpage mask (0: no trailing
        #: message).
        self.trailing_mask = _mask(trailing)
        #: Every message's mask after the initial one, in send order:
        #: a placement's ``masks`` unless a step rounds to nothing.
        self.follow_masks = self.group_masks + (
            (self.trailing_mask,) if trailing else ()
        )
        self.latency_ms = latency_ms
        self.step_ms = step_ms
        self.rest_ms = rest_ms
        self.rest_extra_ms = rest_extra_ms
        self.clamp = clamp
        self.demand_wire_ms = demand_wire_ms
        #: Whether the plan has a background part (``request_fixed_ms``
        #: given); without one its ready time is 0.0.
        self.background = request_fixed_ms is not None
        self.request_fixed_ms = request_fixed_ms or 0.0
        self.background_wire_ms = background_wire_ms
        self.cpu_overhead_ms = cpu_overhead_ms


def row_planner(
    row_for: Callable[[int, int, int], PlanRow], by_subpage: bool
) -> Planner:
    """The planner that places a compiled row at each fault's time.

    ``row_for(page, faulted, block)`` names a fault's :class:`PlanRow`.
    With ``by_subpage`` the row depends on the faulted subpage only, so
    the planner asks once per subpage and keeps the answer: a fault then
    costs one Python frame, the row lookup and placement being inlined
    here.  Without it, ``row_for`` is asked on every fault (the doubled
    initial fetch, the adaptive layer).
    """
    rows: dict[int, PlanRow] = {}

    def plan(now_ms: float, page: int, faulted: int, block: int):
        if by_subpage:
            row = rows.get(faulted)
            if row is None:
                row = rows[faulted] = row_for(page, faulted, block)
        else:
            row = row_for(page, faulted, block)
        resume = now_ms + row.latency_ms
        valid_bits = initial_mask = row.initial_mask
        arrivals = []
        t = resume
        step = row.step_ms
        for mask in row.group_masks:
            t += step
            if t <= resume:
                valid_bits |= mask
            else:
                arrivals.append(t)
        mask = row.trailing_mask
        if mask:
            trailing = now_ms + row.rest_ms + row.rest_extra_ms
            if row.clamp and t > trailing:
                trailing = t
            if trailing <= resume:
                valid_bits |= mask
            else:
                arrivals.append(trailing)
        masks = row.follow_masks
        if valid_bits != initial_mask:
            # Some message landed by resume: it leaves the schedule.
            masks = tuple(mask for mask in masks if not mask & valid_bits)
        return (
            resume,
            valid_bits,
            masks,
            arrivals,
            row.demand_wire_ms,
            (
                now_ms + row.request_fixed_ms + row.demand_wire_ms
                if row.background
                else 0.0
            ),
            row.background_wire_ms,
            row.cpu_overhead_ms,
        )

    return plan


def _mask(subpages: tuple[int, ...]) -> int:
    mask = 0
    for index in subpages:
        mask |= 1 << index
    return mask


class PlanTable:
    """One planner's compiled rows for its run's (latency model, subpage
    size, page size).

    ``rows`` maps a scheme-defined key — for pipelining (initial
    subpages, the faulted one first; follow-on order; pipeline depth) —
    to its :class:`PlanRow`.  The latency model is treated as immutable
    once planned with.
    """

    __slots__ = (
        "latency", "subpage_bytes", "page_bytes", "subpages_per_page",
        "whole_page", "rows",
    )

    def __init__(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> None:
        self.latency = latency
        self.subpage_bytes = subpage_bytes
        self.page_bytes = page_bytes
        self.subpages_per_page = page_bytes // subpage_bytes
        #: Every fault moves the whole page as one transfer.
        self.whole_page = (
            subpage_bytes >= page_bytes or self.subpages_per_page == 1
        )
        self.rows: dict = {}
