"""Reference fault planning: every built-in scheme's plan, from scratch.

This is the per-fault arithmetic the schemes used before plans were
compiled into memoized rows (:class:`repro.core.plans.PlanRow`), kept
verbatim as an oracle: a compiled placement must be ``==`` to the
placement built here for the same fault, float for float.

Every function takes the run's geometry (latency model, subpage size,
page size) and then the fault as a planner sees it (time, faulted
subpage, faulted block), and returns a
:data:`~repro.core.plans.Placement`.

:class:`ReferencePlanning` wraps a built-in scheme and plans every fault
through these functions, so a whole simulation can be run against the
oracle too.
"""

from __future__ import annotations

from repro.core.plans import Placement
from repro.core.schemes import (
    EagerFullPageFetch,
    FetchScheme,
    FullPageFetch,
    LazySubpageFetch,
    SubpagePipelining,
)
from repro.core.sequencers import check_follow_on
from repro.errors import SchemeError
from repro.units import MIN_SUBPAGE_BYTES


def placement(
    resume_ms: float,
    messages: list[tuple[list[int], float]],
    demand_wire_ms: float,
    background_ready_ms: float = 0.0,
    background_wire_ms: float = 0.0,
    cpu_overhead_ms: float = 0.0,
) -> Placement:
    """Partition ``(subpages, arrival)`` messages, in send order, into
    the simulator's placement: what has arrived by resume is valid, the
    rest follows, one mask and one arrival per message."""
    valid_bits = 0
    masks = []
    arrivals = []
    for subpages, arrival in messages:
        mask = 0
        for index in subpages:
            mask |= 1 << index
        if arrival <= resume_ms:
            valid_bits |= mask
        else:
            masks.append(mask)
            arrivals.append(arrival)
    return (
        resume_ms,
        valid_bits,
        tuple(masks),
        arrivals,
        demand_wire_ms,
        background_ready_ms,
        background_wire_ms,
        cpu_overhead_ms,
    )


def fullpage(latency, subpage_bytes, page_bytes, now_ms, faulted, block):
    resume = now_ms + latency.fullpage_latency_ms()
    return placement(
        resume_ms=resume,
        messages=[(list(range(page_bytes // subpage_bytes)), resume)],
        demand_wire_ms=latency.wire_time_ms(page_bytes),
    )


def lazy(latency, subpage_bytes, page_bytes, now_ms, faulted, block):
    resume = now_ms + latency.subpage_latency_ms(subpage_bytes)
    return placement(
        resume_ms=resume,
        messages=[([faulted], resume)],
        demand_wire_ms=latency.wire_time_ms(subpage_bytes),
    )


def eager(latency, subpage_bytes, page_bytes, now_ms, faulted, block):
    s = subpage_bytes
    if s >= page_bytes:
        return fullpage(
            latency, subpage_bytes, page_bytes, now_ms, faulted, block
        )
    resume = now_ms + latency.subpage_latency_ms(s)
    rest = now_ms + latency.rest_of_page_ms(s)
    others = [i for i in range(page_bytes // s) if i != faulted]
    demand_wire = latency.wire_time_ms(s)
    return placement(
        resume_ms=resume,
        messages=[([faulted], resume), (others, rest)],
        demand_wire_ms=demand_wire,
        background_ready_ms=now_ms + latency.request_fixed_ms + demand_wire,
        background_wire_ms=latency.wire_time_ms(page_bytes - s),
    )


def pipelined(
    scheme: SubpagePipelining,
    latency,
    subpage_bytes: int,
    page_bytes: int,
    now_ms: float,
    faulted: int,
    block: int,
    order: list[int] | None = None,
    pipeline_count: int | None = None,
) -> Placement:
    """``scheme``'s plan; ``order`` defaults to its sequencer's."""
    s = subpage_bytes
    spp = page_bytes // subpage_bytes
    if s >= page_bytes or spp == 1:
        return fullpage(
            latency, subpage_bytes, page_bytes, now_ms, faulted, block
        )
    if order is None:
        order = scheme.sequencer.order(faulted, spp)
    order = list(order)
    if pipeline_count is None:
        pipeline_count = scheme.pipeline_count
    check_follow_on(faulted, order, spp)

    initial = [faulted]
    if scheme.double_initial and spp >= 2:
        initial.append(
            _initial_partner(subpage_bytes, spp, faulted, block)
        )
    initial_bytes = s * len(initial)
    resume = now_ms + latency.subpage_latency_ms(initial_bytes)
    messages = [(initial, resume)]

    order = [index for index in order if index not in initial]
    wire_step = latency.wire_time_ms(s * scheme.segment_subpages)
    pipelined = 0
    t = resume
    while pipelined < pipeline_count and order:
        group, order = (
            order[: scheme.segment_subpages],
            order[scheme.segment_subpages :],
        )
        t += wire_step + scheme.interrupt_ms
        messages.append((group, t))
        pipelined += 1
    last_pipelined = t

    if order:
        rest_base = now_ms + latency.rest_of_page_ms(s)
        trailing = max(
            rest_base + pipelined * scheme.interrupt_ms, last_pipelined
        )
        messages.append((order, trailing))

    demand_wire = latency.wire_time_ms(initial_bytes)
    return placement(
        resume_ms=resume,
        messages=messages,
        demand_wire_ms=demand_wire,
        background_ready_ms=now_ms + latency.request_fixed_ms + demand_wire,
        background_wire_ms=latency.wire_time_ms(page_bytes - initial_bytes),
        cpu_overhead_ms=pipelined * scheme.interrupt_ms,
    )


def _initial_partner(
    subpage_bytes: int, spp: int, faulted: int, block: int
) -> int:
    blocks_per_subpage = max(1, subpage_bytes // MIN_SUBPAGE_BYTES)
    offset = block % blocks_per_subpage
    prefer_next = offset >= blocks_per_subpage / 2
    candidates = (
        (faulted + 1, faulted - 1)
        if prefer_next
        else (faulted - 1, faulted + 1)
    )
    for candidate in candidates:
        if 0 <= candidate < spp:
            return candidate
    raise SchemeError("page has no neighbor subpage")


def reference_placement(
    scheme: FetchScheme,
    latency,
    subpage_bytes: int,
    page_bytes: int,
    now_ms: float,
    faulted: int,
    block: int,
) -> Placement:
    """The placement the built-in ``scheme`` must produce for a fault."""
    fault = (latency, subpage_bytes, page_bytes, now_ms, faulted, block)
    if isinstance(scheme, SubpagePipelining):
        return pipelined(scheme, *fault)
    if isinstance(scheme, EagerFullPageFetch):
        return eager(*fault)
    if isinstance(scheme, LazySubpageFetch):
        return lazy(*fault)
    if isinstance(scheme, FullPageFetch):
        return fullpage(*fault)
    raise TypeError(f"no reference planning for {scheme!r}")


class ReferencePlanning(FetchScheme):
    """A built-in scheme, planned from scratch on every fault.

    Reports the wrapped scheme's name and label, so its results compare
    ``==`` with the built-in scheme's.
    """

    def __init__(self, builtin: FetchScheme) -> None:
        self.builtin = builtin
        self.name = builtin.name

    def planner(self, latency, subpage_bytes, page_bytes):
        builtin = self.builtin

        def plan(now_ms, page, faulted, block):
            return reference_placement(
                builtin, latency, subpage_bytes, page_bytes,
                now_ms, faulted, block,
            )

        return plan

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        return self.builtin.label(subpage_bytes, page_bytes)
