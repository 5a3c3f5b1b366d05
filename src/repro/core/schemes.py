"""The subpage fetch schemes (paper Section 2.1).

A scheme's one contract is :meth:`FetchScheme.planner`: for a run's
latency model, subpage size and page size it returns the
:data:`~repro.core.plans.Planner` that answers every fault with a
:data:`~repro.core.plans.Placement` in idle-network absolute times; the
simulator afterwards applies link congestion.  All latency numbers come
from the run's :class:`~repro.net.latency.LatencyModel`, i.e. from the
prototype's calibrated measurements by default.

The built-in schemes are fixed policies, so a plan is a pure function of
the fault's position in the page, shifted by the fault time.  Each
planner compiles every distinct plan once into a
:class:`~repro.core.plans.PlanRow` in its own
:class:`~repro.core.plans.PlanTable`, and answers every later fault from
it through :func:`~repro.core.plans.row_planner`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigError, SchemeError, UnknownSchemeError
from repro.core.plans import PlanRow, PlanTable, Planner, row_planner
from repro.core.sequencers import Sequencer, check_follow_on, make_sequencer
from repro.net.latency import LatencyModel
from repro.units import MIN_SUBPAGE_BYTES


class FetchScheme(ABC):
    """Strategy for servicing a remote-memory page fault."""

    #: Registry name; subclasses override.
    name: str = "base"

    #: Optional per-run adaptive controller
    #: (:class:`repro.policy.adaptive.AdaptivePolicy`).  ``None`` for
    #: static schemes; the simulator feeds fault-path access
    #: observations and resets it between runs when present.
    controller = None

    @abstractmethod
    def planner(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> Planner:
        """The per-run fault planner the simulator calls on every fault:
        ``(now_ms, page, faulted_subpage, faulted_block) -> Placement``.
        """

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        """Short label used in result tables (e.g. ``sp_1024``) for a
        run with these subpage and page sizes."""
        return f"{self.name}_{subpage_bytes}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def fullpage_row(table: PlanTable) -> PlanRow:
    """The whole page in one transfer; the program resumes when it lands.

    Also every scheme's plan when the subpage is the whole page.
    """
    row = table.rows.get(None)
    if row is None:
        latency = table.latency
        row = table.rows[None] = PlanRow(
            initial=tuple(range(table.subpages_per_page)),
            latency_ms=latency.fullpage_latency_ms(),
            demand_wire_ms=latency.wire_time_ms(table.page_bytes),
        )
    return row


class _SubpageKeyedScheme(FetchScheme):
    """A scheme whose plan depends on the faulted subpage only."""

    @abstractmethod
    def row(self, table: PlanTable, faulted: int) -> PlanRow:
        """The compiled plan for a fault on subpage ``faulted``."""

    def planner(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> Planner:
        table = PlanTable(latency, subpage_bytes, page_bytes)
        return row_planner(
            lambda page, faulted, block: self.row(table, faulted),
            by_subpage=True,
        )


class FullPageFetch(_SubpageKeyedScheme):
    """Baseline GMS behaviour: transfer the entire page, then resume."""

    name = "fullpage"

    def row(self, table: PlanTable, faulted: int) -> PlanRow:
        return fullpage_row(table)

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        return f"p_{page_bytes}"


class LazySubpageFetch(_SubpageKeyedScheme):
    """Transfer only the faulted subpage; fetch the rest on demand.

    "This is equivalent in many respects to simply reducing the page
    size" (Section 2.1).  Accesses to other subpages of the page fault
    individually (the simulator re-invokes the scheme per subpage).
    """

    name = "lazy"

    def row(self, table: PlanTable, faulted: int) -> PlanRow:
        row = table.rows.get(faulted)
        if row is None:
            latency = table.latency
            s = table.subpage_bytes
            row = table.rows[faulted] = PlanRow(
                initial=(faulted,),
                latency_ms=latency.subpage_latency_ms(s),
                demand_wire_ms=latency.wire_time_ms(s),
            )
        return row


class EagerFullPageFetch(_SubpageKeyedScheme):
    """Transfer the faulted subpage, resume, ship the rest as one message.

    The remainder's request overlaps the subpage's wire time on the
    server, and the subpage's receive overlaps the remainder's wire time
    on the faulting node (Section 3.2) — both effects are baked into the
    calibrated rest-of-page latency (Table 2).
    """

    name = "eager"

    def row(self, table: PlanTable, faulted: int) -> PlanRow:
        if table.whole_page:
            return fullpage_row(table)
        row = table.rows.get(faulted)
        if row is None:
            latency = table.latency
            s = table.subpage_bytes
            rest = tuple(
                i for i in range(table.subpages_per_page) if i != faulted
            )
            row = table.rows[faulted] = PlanRow(
                initial=(faulted,),
                latency_ms=latency.subpage_latency_ms(s),
                demand_wire_ms=latency.wire_time_ms(s),
                trailing=rest,
                rest_ms=latency.rest_of_page_ms(s),
                # The rest rides the wire right behind the subpage; the
                # calibrated rest-of-page latency already accounts for
                # that serialization, so the background's nominal wire
                # slot starts where the demand's ends.
                request_fixed_ms=latency.request_fixed_ms,
                background_wire_ms=latency.wire_time_ms(
                    table.page_bytes - s
                ),
            )
        return row

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        return f"sp_{subpage_bytes}"


class SubpagePipelining(FetchScheme):
    """Eager fetch with individually pipelined follow-on subpages.

    After the faulted subpage, the first ``pipeline_count`` groups of
    ``segment_subpages`` subpages (in the sequencer's predicted access
    order) are shipped as separate small messages — each arriving one
    wire-time (plus any per-message receiver cost) after the previous —
    and the remainder of the page follows in one message.

    Parameters
    ----------
    sequencer:
        Transfer-order policy; the paper's evaluated scheme is the
        ``"neighbor"`` (+1, -1) order (Section 4.3).
    pipeline_count:
        Number of individually pipelined messages (paper: 2).
    segment_subpages:
        Subpages per pipelined message; 2 reproduces the paper's "doubled
        follow-on transfer" variant.
    interrupt_ms:
        Receiver-CPU cost per pipelined message.  0 models the paper's
        idealized controller (its simulated results); the AN2 prototype's
        measured costs are in
        :data:`repro.net.calibration.PAPER_PIPELINE_INTERRUPT_MS`.
    double_initial:
        Reproduces the paper's other variant: fetch two subpages on the
        initial fault, choosing the preceding or following neighbor
        depending on where in the subpage the faulted word lies.
    """

    name = "pipelined"

    def __init__(
        self,
        sequencer: str | Sequencer = "neighbor",
        pipeline_count: int = 2,
        segment_subpages: int = 1,
        interrupt_ms: float = 0.0,
        double_initial: bool = False,
    ) -> None:
        if pipeline_count < 0:
            raise ConfigError("pipeline_count cannot be negative")
        if segment_subpages < 1:
            raise ConfigError("segment_subpages must be >= 1")
        if interrupt_ms < 0:
            raise ConfigError("interrupt_ms cannot be negative")
        self.sequencer = make_sequencer(sequencer)
        self.pipeline_count = pipeline_count
        self.segment_subpages = segment_subpages
        self.interrupt_ms = interrupt_ms
        self.double_initial = double_initial

    def row(
        self,
        table: PlanTable,
        faulted: int,
        block: int,
        order: tuple[int, ...],
        depth: int,
    ) -> PlanRow:
        """The compiled plan for one fault.

        ``order`` is the predicted access order for the page's other
        subpages (validated against the sequencer contract — see
        :func:`repro.core.sequencers.check_follow_on`) and ``depth`` the
        number of individually pipelined messages.  :meth:`planner`
        passes the sequencer's order and the configured depth; the
        adaptive policy layer passes its predictions.

        Keyed by (initial subpages, the faulted one first; follow-on
        order; depth).  The order is validated when its row is built; an
        invalid order raises :class:`SchemeError` and is never cached,
        so it raises again every time it is offered.
        """
        if table.whole_page:
            return fullpage_row(table)
        initial = (faulted,)
        if self.double_initial:
            initial += (
                self._initial_partner(
                    faulted, block, table.subpage_bytes,
                    table.subpages_per_page,
                ),
            )
        key = (initial, order, depth)  # initial[0] is the faulted subpage
        row = table.rows.get(key)
        if row is None:
            row = table.rows[key] = self._build_row(
                table, faulted, initial, order, depth
            )
        return row

    def _build_row(
        self,
        table: PlanTable,
        faulted: int,
        initial: tuple[int, ...],
        order: tuple[int, ...],
        depth: int,
    ) -> PlanRow:
        latency = table.latency
        s = table.subpage_bytes
        check_follow_on(faulted, order, table.subpages_per_page)
        remaining = [index for index in order if index not in initial]
        segment = self.segment_subpages
        groups = []
        while len(groups) < depth and remaining:
            groups.append(tuple(remaining[:segment]))
            remaining = remaining[segment:]
        messages = len(groups)
        initial_bytes = s * len(initial)
        return PlanRow(
            initial=initial,
            latency_ms=latency.subpage_latency_ms(initial_bytes),
            demand_wire_ms=latency.wire_time_ms(initial_bytes),
            groups=tuple(groups),
            step_ms=latency.wire_time_ms(s * segment) + self.interrupt_ms,
            trailing=tuple(remaining),
            rest_ms=latency.rest_of_page_ms(s),
            rest_extra_ms=messages * self.interrupt_ms,
            clamp=True,
            request_fixed_ms=latency.request_fixed_ms,
            background_wire_ms=latency.wire_time_ms(
                table.page_bytes - initial_bytes
            ),
            cpu_overhead_ms=messages * self.interrupt_ms,
        )

    def planner(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> Planner:
        table = PlanTable(latency, subpage_bytes, page_bytes)
        if table.whole_page:
            return row_planner(
                lambda page, faulted, block: fullpage_row(table),
                by_subpage=True,
            )
        spp = table.subpages_per_page
        depth = self.pipeline_count

        def build(page: int, faulted: int, block: int) -> PlanRow:
            order = tuple(self.sequencer.order(faulted, spp))
            return self.row(table, faulted, block, order, depth)

        if not self.double_initial:
            # The sequencer order is a pure function of the faulted
            # subpage, so with one initial subpage the row is too.
            return row_planner(build, by_subpage=True)
        by_initial: dict[tuple[int, int], PlanRow] = {}

        def row_for(page: int, faulted: int, block: int) -> PlanRow:
            key = (
                faulted,
                self._initial_partner(faulted, block, subpage_bytes, spp),
            )
            row = by_initial.get(key)
            if row is None:
                row = by_initial[key] = build(page, faulted, block)
            return row

        return row_planner(row_for, by_subpage=False)

    def _initial_partner(
        self,
        faulted: int,
        block: int,
        subpage_bytes: int,
        subpages_per_page: int,
    ) -> int:
        """Neighbor to ride along with the initial fetch (direction by
        where in the subpage the faulted block lies)."""
        blocks_per_subpage = max(1, subpage_bytes // MIN_SUBPAGE_BYTES)
        offset = block % blocks_per_subpage
        prefer_next = offset >= blocks_per_subpage / 2
        candidates = (
            (faulted + 1, faulted - 1)
            if prefer_next
            else (faulted - 1, faulted + 1)
        )
        for candidate in candidates:
            if 0 <= candidate < subpages_per_page:
                return candidate
        raise SchemeError("page has no neighbor subpage")  # pragma: no cover

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        return f"pl_{subpage_bytes}"


_SCHEMES: dict[str, type[FetchScheme]] = {
    FullPageFetch.name: FullPageFetch,
    LazySubpageFetch.name: LazySubpageFetch,
    EagerFullPageFetch.name: EagerFullPageFetch,
    SubpagePipelining.name: SubpagePipelining,
}


def _schemes() -> dict[str, type[FetchScheme]]:
    """Every scheme class by registry name.

    :class:`repro.policy.adaptive.AdaptiveScheme` imports this module
    for :class:`FetchScheme`, so it joins the table on first use rather
    than at module top level.
    """
    if "adaptive" not in _SCHEMES:
        from repro.policy.adaptive import AdaptiveScheme

        _SCHEMES[AdaptiveScheme.name] = AdaptiveScheme
    return _SCHEMES


def scheme_names() -> tuple[str, ...]:
    return tuple(sorted(_schemes()))


def make_scheme(spec: str | FetchScheme, **kwargs) -> FetchScheme:
    """Build a scheme from its registry name (or pass an instance through).

    Keyword arguments are forwarded to the scheme constructor, e.g.
    ``make_scheme("pipelined", pipeline_count=4)``.
    """
    if isinstance(spec, FetchScheme):
        if kwargs:
            raise ConfigError(
                "cannot pass constructor arguments with a scheme instance"
            )
        return spec
    try:
        cls = _schemes()[spec]
    except KeyError:
        known = ", ".join(scheme_names())
        raise UnknownSchemeError(
            f"unknown scheme {spec!r}; known schemes: {known}"
        ) from None
    return cls(**kwargs)
