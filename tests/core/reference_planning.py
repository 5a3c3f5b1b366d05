"""Reference fault planning: every built-in scheme's plan, from scratch.

This is the per-fault arithmetic the schemes used before plans were
compiled into memoized rows (:class:`repro.core.plans.PlanRow`), kept
verbatim as an oracle: a compiled plan must be ``==`` to the plan built
here for the same fault, float for float.

:class:`ReferencePlanning` wraps a built-in scheme and plans every fault
through these functions, so a whole simulation can be run against the
oracle too.
"""

from __future__ import annotations

from repro.core.plans import FaultContext, TransferPlan
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


def fullpage(ctx: FaultContext) -> TransferPlan:
    resume = ctx.now_ms + ctx.latency.fullpage_latency_ms()
    arrivals = {i: resume for i in range(ctx.subpages_per_page)}
    return TransferPlan(
        resume_ms=resume,
        arrivals_ms=arrivals,
        demand_wire_ms=ctx.latency.wire_time_ms(ctx.page_bytes),
    )


def lazy(ctx: FaultContext) -> TransferPlan:
    resume = ctx.now_ms + ctx.latency.subpage_latency_ms(ctx.subpage_bytes)
    return TransferPlan(
        resume_ms=resume,
        arrivals_ms={ctx.faulted_subpage: resume},
        demand_wire_ms=ctx.latency.wire_time_ms(ctx.subpage_bytes),
    )


def eager(ctx: FaultContext) -> TransferPlan:
    s = ctx.subpage_bytes
    if s >= ctx.page_bytes:
        return fullpage(ctx)
    resume = ctx.now_ms + ctx.latency.subpage_latency_ms(s)
    rest = ctx.now_ms + ctx.latency.rest_of_page_ms(s)
    arrivals = {i: rest for i in range(ctx.subpages_per_page)}
    arrivals[ctx.faulted_subpage] = resume
    demand_wire = ctx.latency.wire_time_ms(s)
    return TransferPlan(
        resume_ms=resume,
        arrivals_ms=arrivals,
        demand_wire_ms=demand_wire,
        background_ready_ms=ctx.now_ms
        + ctx.latency.request_fixed_ms
        + demand_wire,
        background_wire_ms=ctx.latency.wire_time_ms(ctx.page_bytes - s),
    )


def pipelined(
    scheme: SubpagePipelining,
    ctx: FaultContext,
    order: list[int] | None = None,
    pipeline_count: int | None = None,
    direction: int = 0,
) -> TransferPlan:
    """``scheme``'s plan; ``order`` defaults to its sequencer's."""
    s = ctx.subpage_bytes
    spp = ctx.subpages_per_page
    if s >= ctx.page_bytes or spp == 1:
        return fullpage(ctx)
    if order is None:
        order = scheme.sequencer.order(ctx.faulted_subpage, spp)
    order = list(order)
    if pipeline_count is None:
        pipeline_count = scheme.pipeline_count
    check_follow_on(ctx.faulted_subpage, order, spp)

    initial = [ctx.faulted_subpage]
    if scheme.double_initial and spp >= 2:
        initial.append(_initial_partner(ctx, direction))
    initial_bytes = s * len(initial)
    resume = ctx.now_ms + ctx.latency.subpage_latency_ms(initial_bytes)
    arrivals = {index: resume for index in initial}

    order = [index for index in order if index not in arrivals]
    wire_step = ctx.latency.wire_time_ms(s * scheme.segment_subpages)
    messages = 0
    t = resume
    while messages < pipeline_count and order:
        group, order = (
            order[: scheme.segment_subpages],
            order[scheme.segment_subpages :],
        )
        t += wire_step + scheme.interrupt_ms
        for index in group:
            arrivals[index] = t
        messages += 1
    last_pipelined = t

    if order:
        rest_base = ctx.now_ms + ctx.latency.rest_of_page_ms(s)
        trailing = max(
            rest_base + messages * scheme.interrupt_ms, last_pipelined
        )
        for index in order:
            arrivals[index] = trailing

    demand_wire = ctx.latency.wire_time_ms(initial_bytes)
    return TransferPlan(
        resume_ms=resume,
        arrivals_ms=arrivals,
        demand_wire_ms=demand_wire,
        background_ready_ms=ctx.now_ms
        + ctx.latency.request_fixed_ms
        + demand_wire,
        background_wire_ms=ctx.latency.wire_time_ms(
            ctx.page_bytes - initial_bytes
        ),
        cpu_overhead_ms=messages * scheme.interrupt_ms,
    )


def _initial_partner(ctx: FaultContext, direction: int) -> int:
    if direction:
        prefer_next = direction > 0
    else:
        blocks_per_subpage = max(1, ctx.subpage_bytes // MIN_SUBPAGE_BYTES)
        offset = ctx.faulted_block % blocks_per_subpage
        prefer_next = offset >= blocks_per_subpage / 2
    candidates = (
        (ctx.faulted_subpage + 1, ctx.faulted_subpage - 1)
        if prefer_next
        else (ctx.faulted_subpage - 1, ctx.faulted_subpage + 1)
    )
    for candidate in candidates:
        if ctx.subpage_exists(candidate):
            return candidate
    raise SchemeError("page has no neighbor subpage")


def reference_plan(scheme: FetchScheme, ctx: FaultContext) -> TransferPlan:
    """The plan the built-in ``scheme`` must produce for ``ctx``."""
    if isinstance(scheme, SubpagePipelining):
        return pipelined(scheme, ctx)
    if isinstance(scheme, EagerFullPageFetch):
        return eager(ctx)
    if isinstance(scheme, LazySubpageFetch):
        return lazy(ctx)
    if isinstance(scheme, FullPageFetch):
        return fullpage(ctx)
    raise TypeError(f"no reference planning for {scheme!r}")


class ReferencePlanning(FetchScheme):
    """A built-in scheme, planned from scratch on every fault.

    Defines only :meth:`plan_fault`, so the simulator reaches it through
    the base class's context-building planner.  Reports the wrapped
    scheme's name and label, so its results compare ``==`` with the
    built-in scheme's.
    """

    def __init__(self, builtin: FetchScheme) -> None:
        self.builtin = builtin
        self.name = builtin.name

    def plan_fault(self, ctx: FaultContext) -> TransferPlan:
        return reference_plan(self.builtin, ctx)

    def label(self, subpage_bytes: int) -> str:
        return self.builtin.label(subpage_bytes)
