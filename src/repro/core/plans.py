"""Compiled fault plans: the scheme <-> simulator contract.

A scheme's :meth:`~repro.core.schemes.FetchScheme.planner` returns the
per-run :data:`Planner` the simulator calls on every fault.  It answers
with a :data:`Placement` in *idle-network* absolute times; the simulator
then applies congestion (demand priority, background queueing) via
:class:`repro.net.congestion.LinkModel`, which may slide the background
arrivals.

The built-in schemes are fixed policies, so each distinct plan is
compiled once into a :class:`PlanRow` and shifted to every later fault's
time.  A planner keeps its rows in its own :class:`PlanTable`, built for
the run's latency model, subpage size and page size.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SchemeError
from repro.net.latency import LatencyModel


#: A planned fault as the simulator executes it, in absolute times:
#: ``(resume_ms, valid_bits, follow, demand_wire_ms, background_ready_ms,
#: background_wire_ms, cpu_overhead_ms)``.  ``valid_bits`` marks every
#: subpage that has arrived by ``resume_ms``; ``follow`` holds one
#: ``(subpage_mask, arrival_ms)`` pair per message that lands later, at
#: its idle-network arrival time (the masks are disjoint).
Placement = tuple[
    float, int, tuple[tuple[int, float], ...], float, float, float, float
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
    time involved — is computed once and kept here.  :meth:`place`
    turns it into absolute times with exactly the float operations, in
    exactly the order, the per-fault arithmetic used:

    * ``resume = now + latency``
    * each pipelined message: ``t = t + step`` from ``t = resume``
    * the trailing message: ``(now + rest) + rest_extra``, raised to the
      last pipelined arrival when ``clamp`` is set
    * ``background_ready = (now + request_fixed) + demand_wire``

    so a plan from a row is ``==`` to one planned from scratch.  The
    valid-bit partition compares absolute times, since at a large
    ``now`` rounding can collapse a step to zero.

    Building a row checks that it delivers something and that no wire
    time or CPU overhead is negative (latency models are user-supplied),
    so a malformed row raises :class:`SchemeError` and is never cached.
    """

    __slots__ = (
        "initial",
        "initial_mask",
        "group_masks",
        "trailing_mask",
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

    def place(self, now_ms: float) -> Placement:
        """The fault at ``now_ms`` as the simulator executes it."""
        resume = now_ms + self.latency_ms
        valid_bits = self.initial_mask
        follow = []
        t = resume
        step = self.step_ms
        for mask in self.group_masks:
            t += step
            if t <= resume:
                valid_bits |= mask
            else:
                follow.append((mask, t))
        mask = self.trailing_mask
        if mask:
            trailing = now_ms + self.rest_ms + self.rest_extra_ms
            if self.clamp and t > trailing:
                trailing = t
            if trailing <= resume:
                valid_bits |= mask
            else:
                follow.append((mask, trailing))
        return (
            resume,
            valid_bits,
            tuple(follow),
            self.demand_wire_ms,
            (
                now_ms + self.request_fixed_ms + self.demand_wire_ms
                if self.background
                else 0.0
            ),
            self.background_wire_ms,
            self.cpu_overhead_ms,
        )


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
