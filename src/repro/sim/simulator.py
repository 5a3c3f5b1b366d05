"""The trace-driven simulator main loop.

The simulator walks a run-length-compressed reference trace, maintaining
local-memory residency at page granularity and validity at subpage
granularity.  Memory accesses are the clock (paper Section 3.2): each
reference costs ``event_ns`` (times the trace's dilation factor), and all
fault/transfer latencies are injected in milliseconds on the same axis.

Correctness relies on a property of the machine model: faults and stalls
can only occur on the *first* reference of a run (all later references in
a run hit the same 256-byte block, which cannot become invalid
mid-run because residency only changes at faults and arrivals only make
data *more* valid).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.core.fault import KIND_CODES, FaultKind, FaultLog
from repro.disk.model import DiskModel
from repro.disk.presets import paper_disk
from repro.errors import ConfigError, SchemeError, SimulationError
from repro.gms.cluster import ActiveNode, Cluster, PageLocation, build_cluster
from repro.gms.ids import PageUid, page_uid
from repro.net.congestion import CrossTraffic, LinkModel, PendingArrivals
from repro.net.latency import CalibratedLatencyModel
from repro.obs.instrument import Instrument, Recorder
from repro.palcode.emulator import PalEmulator
from repro.sim.config import SimulationConfig
from repro.sim.replacement import ReplacementPolicy, make_policy
from repro.sim.results import SimulationResult
from repro.sim.tlb import TlbModel
from repro.trace.compress import RunTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policy.adaptive import AdaptivePolicy

#: Fault-log kind codes of the three fault paths.
_REMOTE = KIND_CODES[FaultKind.REMOTE]
_DISK = KIND_CODES[FaultKind.DISK]
_SUBPAGE = KIND_CODES[FaultKind.SUBPAGE]
#: Fields per fault-log row, and the window end's place in a row.
_ROW_WIDTH = FaultLog.WIDTH
_WINDOW_END = FaultLog.FIELDS.index("window_end_ms")


class _Frame(PendingArrivals):
    """Residency state of one local page, and its arrival schedule.

    The frame *is* the page's schedule: the
    :class:`~repro.net.congestion.PendingArrivals` slots (``masks``,
    ``arrivals_ms``, ``latest_ms``, ``wire_end_ms``) hold the messages
    still expected, so a fault allocates this one object and the link
    tracks the frame itself.  ``masks`` is ``None`` when nothing is
    scheduled: the page's fault shipped no follow-on, or its schedule
    has folded into ``valid_bits``.  ``record`` is the offset of the
    fault that brought the page in within the fault log's flat rows;
    its page waits are charged there.  ``owner`` is the offset of the
    fault whose messages the schedule holds, whose window end the fold
    rewrites: the page fault's, or a later subpage fault's once the
    frame adopts that fault's schedule.  A schedule covers every
    subpage its page still lacks (:data:`~repro.core.plans.Placement`),
    so a frame adopts one only while it has none.

    A frame is ``settled`` once every subpage is valid, nothing is in
    flight and its first-touch distance is recorded: from then on it is
    a plain resident page, and a hit on it skips the incomplete-page
    checks.  Nothing clears the flag (valid bits only grow, and only an
    unsettled frame can take a subpage fault); a new fault builds a new
    frame.
    """

    __slots__ = (
        "valid_bits", "dirty", "record", "owner", "distance_from",
        "settled",
    )

    def __init__(
        self,
        valid_bits: int,
        masks: Sequence[int] | None,
        arrivals_ms: list[float] | None,
        latest_ms: float,
        wire_end_ms: float,
        dirty: bool,
        record: int,
        distance_from: int | None,
    ) -> None:
        self.valid_bits = valid_bits
        self.masks = masks
        self.arrivals_ms = arrivals_ms
        self.latest_ms = latest_ms
        self.wire_end_ms = wire_end_ms
        self.dirty = dirty
        self.record = self.owner = record
        self.distance_from = distance_from
        self.settled = False


class Simulator:
    """Runs one :class:`SimulationConfig` over traces, one run at a time.

    ``cluster`` may supply a prebuilt (and possibly shared) GMS cluster
    for ``backing="cluster"`` runs, built by
    :func:`~repro.gms.cluster.build_cluster`.  Without it, each run
    builds its own through the same function: the workload on node 0
    and ``cluster_nodes - 1`` idle nodes.

    ``instrument`` optionally receives fault-path observability hooks
    (see :mod:`repro.obs.instrument`).  When it is ``None`` but
    ``config.observe`` is set, each run builds its own
    :class:`~repro.obs.instrument.Recorder` and attaches the collected
    trace events / metrics to the returned result.

    The simulator also holds the state of the run in progress: the
    attributes from ``policy`` on are set by :meth:`_prepare`, advanced
    by :meth:`_drive` and read out by :meth:`_finish`, so a simulator
    drives one run at a time and each :meth:`_prepare` starts afresh.
    """

    __slots__ = (
        "config", "scheme", "latency", "_plan", "_external_cluster",
        "_instrument", "_link_fabric", "_link_label",
        # The run in progress (set by ``_prepare``).
        "policy", "link", "disk", "tlb", "pal", "cluster", "adaptive",
        "result", "event_ms", "full_mask", "memory_pages", "backing",
        "congestion", "rows", "log_row", "ins", "recorder",
    )

    #: Owns the resident set: ``policy.frames`` maps page -> _Frame.
    policy: ReplacementPolicy
    link: LinkModel
    disk: DiskModel
    tlb: TlbModel | None
    pal: PalEmulator | None
    cluster: Cluster | None
    #: The scheme's adaptive controller, if any; fed an observation at
    #: every page fault and incomplete-page touch.
    adaptive: "AdaptivePolicy | None"
    result: SimulationResult
    event_ms: float
    full_mask: int
    #: The run's constants the fault path reads on every fault.
    memory_pages: int
    backing: str
    congestion: bool
    #: The result's fault log rows, and their bound ``extend``: a fault
    #: appends its row in one call.
    rows: list
    log_row: Callable[[tuple], None]
    #: Where the run's hooks go, and the run's own recorder when it
    #: built one (``config.observe`` without an ``instrument``).
    ins: Instrument | None
    recorder: Recorder | None

    def __init__(
        self,
        config: SimulationConfig,
        cluster: Cluster | None = None,
        instrument: Instrument | None = None,
        link_fabric: "CrossTraffic | None" = None,
        link_label: str | None = None,
    ) -> None:
        config.validate()
        if (
            cluster is None
            and config.backing == "cluster"
            and config.cluster_node_id != 0
        ):
            raise ConfigError(
                f"cluster_node_id {config.cluster_node_id} needs a shared "
                f"cluster; a simulator's own cluster runs its workload "
                f"on node 0"
            )
        self.config = config
        self._external_cluster = cluster
        self._instrument = instrument
        self._link_fabric = link_fabric
        self._link_label = link_label
        self.scheme = config.build_scheme()
        self.latency = (
            config.latency_model
            if config.latency_model is not None
            else CalibratedLatencyModel(page_bytes=config.page_bytes)
        )
        if self.latency.page_bytes != config.page_bytes:
            raise SimulationError(
                f"latency model page size {self.latency.page_bytes} != "
                f"config page size {config.page_bytes}"
            )
        #: Answers every fault: ``(now, page, subpage, block)`` to a
        #: :data:`~repro.core.plans.Placement`.
        self._plan = self.scheme.planner(
            self.latency, config.subpage_bytes, config.page_bytes
        )

    # -- public API --------------------------------------------------------

    def run(self, trace: RunTrace) -> SimulationResult:
        """Simulate ``trace`` and return the result."""
        runs = self._prepare(trace)
        clock, _ = self._drive_reference(runs, 0.0, -1)
        return self._finish(clock)

    def _prepare(
        self, trace: RunTrace
    ) -> Iterator[tuple[int, int, int, float, bool]]:
        """Set up a run of ``trace`` and return its runs to drive.

        Every attribute of the run in progress is set here, so whatever
        an earlier run left behind is replaced.  Split out of :meth:`run`
        so the multi-tenant scheduler (:mod:`repro.sim.multitenant`) can
        set up each tenant exactly the way a standalone run would — same
        substrate objects, same reset order — and drive them in
        clock-bounded slices.  Pair with :meth:`_finish`.
        """
        cfg = self.config
        if trace.page_bytes != cfg.page_bytes:
            raise SimulationError(
                f"trace page size {trace.page_bytes} != config "
                f"{cfg.page_bytes}"
            )

        event_ms = cfg.event_ns * 1e-6
        if cfg.use_trace_dilation:
            event_ms *= trace.dilation
        self.event_ms = event_ms
        self.full_mask = (1 << (cfg.page_bytes // cfg.subpage_bytes)) - 1
        self.memory_pages = cfg.memory_pages
        self.backing = cfg.backing
        self.congestion = cfg.congestion

        ins = self._instrument
        self.recorder = None
        if ins is None and cfg.observe:
            self.recorder = ins = Recorder.from_spec(
                cfg.observe, node=cfg.cluster_node_id
            )
        self.ins = ins

        self.policy = make_policy(cfg.replacement, seed=cfg.seed)
        self.link = LinkModel(
            fabric=self._link_fabric,
            label=self._link_label,
        )
        self.disk = paper_disk(cfg.page_bytes)
        self.disk.instrument = ins
        self.tlb = (
            TlbModel(cfg.tlb_entries, cfg.tlb_miss_ns)
            if cfg.tlb_entries > 0
            else None
        )
        self.pal = PalEmulator() if cfg.protection == "palcode" else None
        cluster = None
        if cfg.backing == "cluster":
            cluster = self._external_cluster
            if cluster is None:
                active = ActiveNode(
                    cfg.memory_pages, trace.pages, cfg.shared_from_page
                )
                cluster = build_cluster(
                    [active],
                    idle_nodes=cfg.cluster_nodes - 1,
                    idle_frames=cfg.cluster_idle_frames,
                    seed=cfg.seed,
                    warm=cfg.cluster_warm,
                    instrument=ins,
                )
        self.cluster = cluster

        # Adaptive schemes carry a per-run controller; reset it and feed
        # it fault-path observations for the whole run.
        self.adaptive = self.scheme.controller
        if self.adaptive is not None:
            self.adaptive.begin_run(subpage_bytes=cfg.subpage_bytes)

        self.result = SimulationResult(
            trace_name=trace.name,
            scheme_label=cfg.scheme_label(),
            scheme_name=self.scheme.name,
            subpage_bytes=cfg.subpage_bytes,
            page_bytes=cfg.page_bytes,
            memory_pages=cfg.memory_pages,
            backing=cfg.backing,
            num_references=trace.num_references,
            num_runs=trace.num_runs,
            event_cost_ms=event_ms,
        )
        self.rows = self.result.faults.rows
        self.log_row = self.rows.extend
        # Per-run columns, cached on the trace across runs/subpage sizes.
        return trace.columns(cfg.subpage_bytes).runs()

    def _drive_reference(
        self,
        runs: Iterator[tuple[int, int, int, float, bool]],
        clock: float,
        last_page: int,
    ) -> tuple[float, int | None]:
        """Drive one whole cell: :meth:`_drive` with no clock bound."""
        return self._drive(runs, clock, last_page, math.inf)

    def _drive(
        self,
        runs: Iterator[tuple[int, int, int, float, bool]],
        clock: float,
        last_page: int,
        until: float,
    ) -> tuple[float, int | None]:
        """The drive loop: advance the run in progress over ``runs``
        from ``clock``.

        ``runs`` is an iterator of ``(page, subpage, block, count,
        write)`` runs (:meth:`~repro.trace.compress.TraceColumns.runs`);
        it is consumed in place, so a caller that stops early resumes by
        passing the same iterator back.  After each run the loop checks
        ``clock > until`` and, if so, returns ``(clock, last_page)`` —
        at least one run executes per call.  Once ``runs`` is exhausted
        it returns ``(clock, None)``.  A standalone run
        (:meth:`_drive_reference`) passes ``until=inf`` and drives the
        whole trace in one call; the multi-tenant scheduler passes the
        next tenant's clock.

        The loop keeps the current page's frame and its ``settled`` flag
        in locals: the resident-set lookup, the policy's ``touch`` and
        the TLB run only at a page switch, and a run that stays on a
        settled page costs one test before its clock add.
        """
        frames = self.policy.frames
        # Bound once: calling ``.get`` through an OrderedDict each run
        # costs about twice a plain dict lookup; the bound method does not.
        resident = frames.get
        touch = self.policy.touch
        page_fault = self._page_fault
        touch_incomplete = self._touch_incomplete
        tlb = self.tlb
        pal = self.pal
        event_ms = self.event_ms
        full_mask = self.full_mask
        result = self.result

        # A resumed slice picks its current frame back up.  Residency
        # only changes at this run's own faults, so it is still there.
        frame = resident(last_page)
        settled = frame is not None and frame.settled

        for page, sp, block, count, write in runs:
            if page != last_page:
                frame = resident(page)
                last_page = page
                if frame is None:
                    clock = page_fault(clock, page, sp, block, write)
                    frame = frames[page]
                    settled = False
                    if tlb is not None and not tlb.access(page):
                        # The TLB misses before the fault is even
                        # detected; the walk cost is paid on top of the
                        # fault service.
                        clock += tlb.miss_ms
                    if pal is not None and frame.masks is not None:
                        # Software protection: the rest of the faulting
                        # run executes against a still-incomplete page.
                        self._charge_emulation(
                            clock, page, frame, count, write
                        )
                    clock += count * event_ms
                    if clock > until:
                        return clock, last_page
                    continue
                if touch is not None:
                    touch(page)
                if tlb is not None and not tlb.access(page):
                    clock += tlb.miss_ms
                settled = frame.settled
            if not settled:
                if frame.distance_from is not None:
                    if sp != frame.distance_from:
                        distance = sp - frame.distance_from
                        hist = result.distance_histogram
                        hist[distance] = hist.get(distance, 0) + 1
                        frame.distance_from = None
                if frame.masks is not None or frame.valid_bits != full_mask:
                    clock = touch_incomplete(
                        clock, page, frame, sp, block, write, count
                    )
                elif frame.distance_from is None:
                    frame.settled = settled = True
            if write and not frame.dirty:
                frame.dirty = True
            clock += count * event_ms
            if clock > until:
                return clock, last_page
        return clock, None

    # -- fault handling ------------------------------------------------------

    def _page_fault(
        self,
        clock: float,
        page: int,
        sp: int,
        block: int,
        is_write: bool,
    ) -> float:
        """Bring ``page`` in: make room, fetch it, and log the fault as
        one row; returns when the program resumes."""
        frames = self.policy.frames
        cluster = self.cluster

        victim = -1
        victim_dirty = cancelled = False
        if len(frames) >= self.memory_pages:
            victim, evicted, cancelled = self.policy.evict(clock)
            victim_dirty = evicted.dirty
            if self.tlb is not None:
                self.tlb.invalidate(victim)
            if cluster is not None:
                cluster.putpage(
                    self.config.cluster_node_id,
                    self._uid(victim),
                    age=clock,
                    dirty=victim_dirty,
                )

        if self.adaptive is not None:
            self.adaptive.observe(page, sp, "fault")

        service = self.backing
        if cluster is not None:
            got = cluster.getpage(
                self.config.cluster_node_id, self._uid(page), clock
            )
            service = (
                "disk" if got.location is PageLocation.DISK else "remote"
            )

        record = len(self.rows)
        # A one-subpage page has no other subpage to measure a distance
        # to, so its distance is already settled.
        distance_from = sp if self.full_mask > 1 else None
        if service == "disk":
            latency = self.disk.read_page(page)
            resume = window_end_ms = clock + latency
            kind = _DISK
            sp_latency_ms = latency
            cpu_overhead_ms = 0.0
            overlapped = False
            demand_ready_ms = background_start_ms = None
            demand_wire_ms = background_ready_ms = background_wire_ms = 0.0
            frame = _Frame(
                self.full_mask, None, None, 0.0, 0.0,
                is_write, record, distance_from,
            )
        else:
            (
                resume, valid_bits, masks, arrivals, demand_wire_ms,
                background_ready_ms, background_wire_ms, cpu_overhead_ms,
            ) = self._plan(clock, page, sp, block)
            link = self.link
            overlapped = link.busy_until_ms > clock
            if masks:
                # The frame is the schedule the link shifts.
                schedule = frame = _Frame(
                    valid_bits, masks, arrivals, max(arrivals),
                    background_ready_ms + background_wire_ms,
                    is_write, record, distance_from,
                )
            else:
                schedule = None
                frame = _Frame(
                    valid_bits, None, None, 0.0, 0.0,
                    is_write, record, distance_from,
                )
            demand_ready_ms = background_start_ms = None
            if self.congestion:
                demand_ready_ms = clock + self.latency.request_fixed_ms
                background_start_ms = link.fault(
                    demand_ready_ms, demand_wire_ms, schedule,
                    background_ready_ms, background_wire_ms,
                )
            kind = _REMOTE
            sp_latency_ms = resume - clock
            window_end_ms = frame.latest_ms if masks else resume

        self.log_row((
            page, sp, kind, clock, sp_latency_ms, resume, window_end_ms,
            cpu_overhead_ms, overlapped, victim, victim_dirty, cancelled,
        ))
        if self.ins is not None:
            self.ins.on_fault(
                page, sp, kind, clock, sp_latency_ms, resume,
                window_end_ms, cpu_overhead_ms, overlapped,
                victim if victim >= 0 else None, victim_dirty, cancelled,
                demand_ready_ms, demand_wire_ms, background_ready_ms,
                background_start_ms, background_wire_ms,
            )
        # The drive loop faults only on a page it did not find resident.
        frames[page] = frame
        return resume + cpu_overhead_ms

    def _touch_incomplete(
        self,
        clock: float,
        page: int,
        frame: _Frame,
        sp: int,
        block: int,
        is_write: bool,
        count: float,
    ) -> float:
        """Access path for a page that is resident but incomplete."""
        if self.adaptive is not None:
            self.adaptive.observe(page, sp, "touch")
        if not frame.valid_bits >> sp & 1:
            if frame.masks is None:
                # Lazy fetch: the subpage was never requested; fault it.
                clock = self._subpage_fault(clock, page, frame, sp, block)
            else:
                arrival = frame.arrival(sp)
                if arrival is None:
                    raise SchemeError(
                        f"{self.scheme.name}: subpage {sp} of page {page} "
                        f"was never requested while the page's follow-on "
                        f"is in flight; a fault's follow-on must be empty "
                        f"or cover every subpage the page lacks"
                    )
                if arrival > clock:
                    self.result.faults.add_page_wait(
                        frame.record // _ROW_WIDTH, clock, arrival
                    )
                    if self.ins is not None:
                        self.ins.on_stall(clock, arrival, "page_wait", page)
                    clock = arrival
                frame.valid_bits |= 1 << sp

        # Fold completed transfers: once everything has arrived the page
        # behaves like any fully-resident page (access re-enabled), and
        # the fault whose messages they were has its window closed.
        if frame.masks is not None:
            latest = frame.latest_ms
            if clock < latest:
                if self.pal is not None:
                    self._charge_emulation(
                        clock, page, frame, count, is_write
                    )
                return clock
            self.rows[frame.owner + _WINDOW_END] = latest
            frame.valid_bits = self.full_mask
            frame.masks = None
        return clock

    def _charge_emulation(
        self,
        clock: float,
        page: int,
        frame: _Frame,
        count: float,
        is_write: bool,
    ) -> None:
        """Software protection: references to an incomplete page are
        emulated (Table 1 costs) until its last subpage arrives."""
        assert self.pal is not None and frame.masks is not None
        latest = frame.latest()
        refs_until_done = int((latest - clock) / self.event_ms) + 1
        emulated = min(int(count), refs_until_done)
        self.pal.charge_run(page, emulated, is_write)

    def _subpage_fault(
        self,
        clock: float,
        page: int,
        frame: _Frame,
        sp: int,
        block: int,
    ) -> float:
        """Lazy-scheme fault on a subpage of a resident page with nothing
        scheduled."""
        (
            resume, valid_bits, masks, arrivals, demand_wire_ms,
            background_ready_ms, background_wire_ms, cpu_overhead_ms,
        ) = self._plan(clock, page, sp, block)
        frame.valid_bits |= valid_bits
        # Follow-on arrivals ride the shared link exactly like a page
        # fault's background transfer: the frame adopts the schedule and
        # the link takes the frame (so it queues behind in-flight
        # traffic, can be preempted by demand transfers, and carries a
        # real wire_end_ms for eviction accounting).  The link has never
        # held this frame: a frame leaves the link's sight only by
        # folding, and a folded page is complete.  The fold then closes
        # this fault's window.
        schedule = None
        if masks:
            frame.masks = masks
            frame.arrivals_ms = arrivals
            frame.latest_ms = max(arrivals)
            frame.wire_end_ms = background_ready_ms + background_wire_ms
            frame.owner = len(self.rows)
            schedule = frame
        demand_ready_ms = background_start_ms = None
        if self.congestion:
            demand_ready_ms = clock + self.latency.request_fixed_ms
            background_start_ms = self.link.fault(
                demand_ready_ms, demand_wire_ms, schedule,
                background_ready_ms, background_wire_ms,
            )
        window_end = frame.latest_ms if masks else resume
        sp_latency_ms = resume - clock
        self.log_row((
            page, sp, _SUBPAGE, clock, sp_latency_ms, resume, window_end,
            cpu_overhead_ms, False, -1, False, False,
        ))
        if self.ins is not None:
            self.ins.on_fault(
                page, sp, _SUBPAGE, clock, sp_latency_ms, resume,
                window_end, cpu_overhead_ms, False,
                None, False, False,
                demand_ready_ms, demand_wire_ms, background_ready_ms,
                background_start_ms, background_wire_ms,
            )
        return resume + cpu_overhead_ms

    # -- setup / teardown --------------------------------------------------

    def _uid(self, page: int) -> PageUid:
        """Cluster-wide UID for a local virtual page (see
        :func:`~repro.gms.ids.page_uid`)."""
        cfg = self.config
        return page_uid(cfg.cluster_node_id, page, cfg.shared_from_page)

    def _finish(self, clock: float) -> SimulationResult:
        """Close the run driven to ``clock`` and return its result
        (pairs with :meth:`_prepare`)."""
        result = self.result
        result.components.exec_ms = result.num_references * self.event_ms
        if self.tlb is not None:
            stats = self.tlb.stats
            result.components.tlb_miss_ms = stats.miss_time_ms
            result.tlb_stats = {
                "accesses": stats.accesses,
                "misses": stats.misses,
                "miss_rate": stats.miss_rate,
            }
        if self.pal is not None:
            stats = self.pal.stats
            result.components.emulation_ms = stats.overhead_ms
            result.emulation_stats = {
                "emulated_accesses": stats.emulated_accesses,
                "overhead_ms": stats.overhead_ms,
                "fast_loads": stats.fast_loads,
                "slow_loads": stats.slow_loads,
                "fast_stores": stats.fast_stores,
                "slow_stores": stats.slow_stores,
            }
        link = self.link
        result.link_stats = {
            "demand_transfers": link.demand_transfers,
            "background_transfers": link.background_transfers,
            "queueing_delay_ms": link.total_queueing_delay_ms,
            "preemption_delay_ms": link.total_preemption_delay_ms,
        }
        if self.cluster is not None:
            result.cluster_stats = self.cluster.stats.as_dict()
        if self.adaptive is not None:
            stats = self.adaptive.finish()
            if stats is not None:
                result.policy_stats = stats
        # The fault counters and the per-fault components come from the
        # log, so they cannot disagree with it.  The sums run left to
        # right from 0.0 in fault order, the order the faults happened.
        faults = result.faults
        faults.freeze()
        kinds = faults.kind
        result.remote_faults = int(np.count_nonzero(kinds == _REMOTE))
        result.disk_faults = int(np.count_nonzero(kinds == _DISK))
        result.subpage_faults = int(np.count_nonzero(kinds == _SUBPAGE))
        result.overlapped_faults = int(
            np.count_nonzero(faults.overlapped_another)
        )
        result.evictions = int(np.count_nonzero(faults.victim >= 0))
        result.dirty_evictions = int(np.count_nonzero(faults.victim_dirty))
        result.cancelled_transfers = int(np.count_nonzero(faults.cancelled))
        components = result.components
        components.sp_latency_ms = _running_sum(faults.sp_latency_ms)
        components.page_wait_ms = _running_sum(
            faults.wait_end_ms - faults.wait_start_ms
        )
        components.cpu_overhead_ms = _running_sum(faults.cpu_overhead_ms)
        # Close any still-open fault windows at the end of the run.
        faults.window_end_ms = np.minimum(faults.window_end_ms, clock)
        ins = self.ins
        if ins is not None:
            ins.publish("link", result.link_stats)
            if result.policy_stats:
                ins.publish("policy", result.policy_stats)
            if result.tlb_stats:
                ins.publish("tlb", result.tlb_stats)
            if result.emulation_stats:
                ins.publish("emulation", result.emulation_stats)
            if result.cluster_stats:
                ins.publish("cluster", result.cluster_stats)
            ins.on_run_end(result)
        recorder = self.recorder
        if recorder is not None:
            if recorder.metrics is not None:
                result.metrics = recorder.metrics.as_dict()
            if recorder.trace is not None:
                result.trace_events = recorder.trace.events
        return result


def _running_sum(column: np.ndarray) -> float:
    """``column`` summed left to right from 0.0, as a loop of ``+=``
    would: the last running sum, not NumPy's pairwise ``sum``."""
    return float(np.cumsum(np.concatenate(([0.0], column)))[-1])


def simulate(trace: RunTrace, config: SimulationConfig) -> SimulationResult:
    """Convenience: build a :class:`Simulator` and run one trace."""
    return Simulator(config).run(trace)
