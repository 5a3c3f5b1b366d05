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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.fault import KIND_CODES, FaultKind
from repro.disk.presets import paper_disk
from repro.errors import ConfigError, SimulationError
from repro.gms.cluster import ActiveNode, Cluster, PageLocation, build_cluster
from repro.gms.ids import PageUid, page_uid
from repro.net.congestion import CrossTraffic, LinkModel, PendingArrivals
from repro.net.latency import CalibratedLatencyModel
from repro.obs.instrument import Instrument, Recorder
from repro.palcode.emulator import PalEmulator
from repro.sim.config import SimulationConfig
from repro.sim.replacement import ReplacementPolicy, in_flight, make_policy
from repro.sim.results import SimulationResult
from repro.sim.tlb import TlbModel
from repro.trace.compress import RunTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policy.adaptive import AdaptivePolicy
    from repro.trace.compress import TraceColumns

#: Fault-log kind codes of the three fault paths.
_REMOTE = KIND_CODES[FaultKind.REMOTE]
_DISK = KIND_CODES[FaultKind.DISK]
_SUBPAGE = KIND_CODES[FaultKind.SUBPAGE]


class _Frame:
    """Residency state of one local page (``record`` is the index of the
    fault that brought it in, in the result's fault log)."""

    __slots__ = ("valid_bits", "pending", "dirty", "record", "distance_from")

    def __init__(
        self,
        valid_bits: int,
        pending: PendingArrivals | None,
        dirty: bool,
        record: int,
        distance_from: int | None,
    ) -> None:
        self.valid_bits = valid_bits
        self.pending = pending
        self.dirty = dirty
        self.record = record
        self.distance_from = distance_from


class Simulator:
    """Runs one :class:`SimulationConfig` over traces.

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
    """

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
        state, cols, recorder = self._prepare(trace)
        clock, _ = self._drive_reference(state, cols.runs(), 0.0, -1)
        return self._finish(state, clock, recorder)

    def _prepare(
        self, trace: RunTrace
    ) -> tuple["_RunState", "TraceColumns", Recorder | None]:
        """Build the per-run state the drive loop advances.

        Split out of :meth:`run` so the multi-tenant scheduler
        (:mod:`repro.sim.multitenant`) can set up each tenant exactly the
        way a standalone run would — same substrate objects, same reset
        order — and drive them in clock-bounded slices.  Pair with
        :meth:`_finish`.
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

        # Per-run columns, cached on the trace across runs/subpage sizes.
        cols = trace.columns(cfg.subpage_bytes)

        full_mask = (1 << (cfg.page_bytes // cfg.subpage_bytes)) - 1

        ins = self._instrument
        recorder: Recorder | None = None
        if ins is None and cfg.observe:
            recorder = Recorder.from_spec(
                cfg.observe, node=cfg.cluster_node_id
            )
            ins = recorder

        policy = make_policy(cfg.replacement, seed=cfg.seed)
        link = LinkModel(
            instrument=ins,
            fabric=self._link_fabric,
            label=self._link_label,
        )
        disk = cfg.disk_model if cfg.disk_model is not None else paper_disk(
            cfg.page_bytes
        )
        disk.reset()
        if cfg.disk_model is None and ins is not None:
            # Only the simulator-owned preset disk is instrumented; a
            # caller-supplied model keeps whatever instrument it carries.
            disk.instrument = ins
        tlb = (
            TlbModel(cfg.tlb_entries, cfg.tlb_miss_ns)
            if cfg.tlb_entries > 0
            else None
        )
        pal = PalEmulator() if cfg.protection == "palcode" else None
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

        # Adaptive schemes carry a per-run controller; reset it and feed
        # it fault-path observations for the whole run.
        controller = self.scheme.controller
        if controller is not None:
            controller.begin_run(subpage_bytes=cfg.subpage_bytes)

        result = SimulationResult(
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
        state = _RunState(
            policy=policy,
            link=link,
            disk=disk,
            tlb=tlb,
            pal=pal,
            cluster=cluster,
            result=result,
            event_ms=event_ms,
            full_mask=full_mask,
            ins=ins,
            adaptive=controller,
        )
        return state, cols, recorder

    def _finish(
        self,
        state: "_RunState",
        clock: float,
        recorder: Recorder | None,
    ) -> SimulationResult:
        """Finalize a driven run and return its result (pairs with
        :meth:`_prepare`)."""
        result = state.result
        self._finalize(state, clock)
        if recorder is not None:
            if recorder.metrics is not None:
                result.metrics = recorder.metrics.as_dict()
            if recorder.trace is not None:
                result.trace_events = recorder.trace.events
        return result

    def _drive_reference(
        self,
        state: "_RunState",
        runs: Iterator[tuple[int, int, int, int, bool]],
        clock: float,
        last_page: int,
    ) -> tuple[float, int | None]:
        """Drive one whole cell: :meth:`_drive` with no clock bound."""
        return self._drive(state, runs, clock, last_page, math.inf)

    def _drive(
        self,
        state: "_RunState",
        runs: Iterator[tuple[int, int, int, int, bool]],
        clock: float,
        last_page: int,
        until: float,
    ) -> tuple[float, int | None]:
        """The drive loop: advance ``state`` over ``runs`` from ``clock``.

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
        """
        policy = state.policy
        frames = policy.frames
        # Bound once: calling ``.get`` through an OrderedDict each run
        # costs about twice a plain dict lookup; the bound method does not.
        resident = frames.get
        tlb = state.tlb
        pal = state.pal
        event_ms = state.event_ms
        full_mask = state.full_mask
        result = state.result

        feed_hits = (
            state.adaptive is not None
            and state.adaptive.needs_reference_events
        )

        for page, sp, block, count, write in runs:
            frame = resident(page)
            if frame is None:
                clock = self._page_fault(
                    state, clock, page, sp, block, write
                )
                frame = frames[page]
                last_page = page
                if tlb is not None and not tlb.access(page):
                    # The TLB misses before the fault is even detected;
                    # the walk cost is paid on top of the fault service.
                    clock += tlb.miss_ms
                if pal is not None and frame.pending is not None:
                    # Software protection: the rest of the faulting run
                    # executes against a still-incomplete page.
                    self._charge_emulation(
                        state, clock, page, frame, count, write
                    )
            else:
                if page != last_page:
                    policy.touch(page)
                    last_page = page
                    if tlb is not None and not tlb.access(page):
                        clock += tlb.miss_ms
                if frame.distance_from is not None:
                    if sp != frame.distance_from:
                        distance = sp - frame.distance_from
                        hist = result.distance_histogram
                        hist[distance] = hist.get(distance, 0) + 1
                        frame.distance_from = None
                if frame.pending is not None or frame.valid_bits != full_mask:
                    clock = self._touch_incomplete(
                        state, clock, page, frame, sp, block, write, count
                    )
                elif feed_hits:
                    state.adaptive.observe(page, sp, "hit")
                if write and not frame.dirty:
                    frame.dirty = True
            clock += count * event_ms
            if clock > until:
                return clock, last_page
        return clock, None

    # -- fault handling ------------------------------------------------------

    def _page_fault(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        sp: int,
        block: int,
        is_write: bool,
    ) -> float:
        cfg = self.config
        result = state.result

        if len(state.policy.frames) >= cfg.memory_pages:
            self._evict(state, clock)

        if state.adaptive is not None:
            state.adaptive.observe(page, sp, "fault")

        service = cfg.backing
        if state.cluster is not None:
            got = state.cluster.getpage(
                cfg.cluster_node_id, self._uid(page), clock
            )
            service = (
                "disk" if got.location is PageLocation.DISK else "remote"
            )

        if service == "disk":
            latency = state.disk.read_page(page)
            resume = clock + latency
            kind = _DISK
            sp_latency_ms = latency
            valid_bits = state.full_mask
            pending = None
            window_end_ms = resume
            cpu_overhead_ms = 0.0
            overlapped = False
            result.disk_faults += 1
        else:
            (
                resume, valid_bits, follow, demand_wire_ms,
                background_ready_ms, background_wire_ms, cpu_overhead_ms,
            ) = self._plan(clock, page, sp, block)
            overlapped = state.link.busy_until_ms > clock
            if cfg.congestion:
                state.link.demand(
                    clock + self.latency.request_fixed_ms,
                    demand_wire_ms,
                    page=page,
                )
            pending = None
            if follow:
                pending = PendingArrivals(
                    arrival_ms=follow,
                    wire_end_ms=background_ready_ms + background_wire_ms,
                )
                if cfg.congestion and background_wire_ms > 0:
                    state.link.background(
                        background_ready_ms,
                        background_wire_ms,
                        pending,
                        page=page,
                    )
            kind = _REMOTE
            sp_latency_ms = resume - clock
            window_end_ms = pending.latest() if pending else resume
            result.remote_faults += 1
            if overlapped:
                result.overlapped_faults += 1

        index = result.faults.append(
            page, sp, kind, clock, sp_latency_ms, resume,
            window_end_ms, cpu_overhead_ms, overlapped,
        )
        if state.ins is not None:
            state.ins.on_fault(
                page, sp, kind, clock, sp_latency_ms, resume,
                window_end_ms, cpu_overhead_ms, overlapped,
            )
        result.components.sp_latency_ms += sp_latency_ms
        result.components.cpu_overhead_ms += cpu_overhead_ms
        state.policy.insert(page, _Frame(
            valid_bits=valid_bits,
            pending=pending,
            dirty=is_write,
            record=index,
            distance_from=sp,
        ))
        return resume + cpu_overhead_ms

    def _touch_incomplete(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        frame: _Frame,
        sp: int,
        block: int,
        is_write: bool,
        count: int,
    ) -> float:
        """Access path for a page that is resident but incomplete."""
        result = state.result
        if state.adaptive is not None:
            state.adaptive.observe(page, sp, "touch")
        if not frame.valid_bits >> sp & 1:
            pending = frame.pending
            arrival = (
                pending.arrival_ms.get(sp) if pending is not None else None
            )
            if arrival is None:
                # Lazy fetch: the subpage was never requested; fault it.
                clock = self._subpage_fault(
                    state, clock, page, frame, sp, block
                )
            elif arrival > clock:
                result.faults.add_page_wait(frame.record, clock, arrival)
                if state.ins is not None:
                    state.ins.on_stall(clock, arrival, "page_wait", page)
                result.components.page_wait_ms += arrival - clock
                clock = arrival
                frame.valid_bits |= 1 << sp
            else:
                frame.valid_bits |= 1 << sp

        # Fold completed transfers: once everything has arrived the page
        # behaves like any fully-resident page (access re-enabled).  An
        # empty schedule means nothing is actually in flight; fold it
        # immediately rather than tripping PendingArrivals.latest().
        pending = frame.pending
        if pending is not None:
            if pending.arrival_ms:
                latest = pending.latest()
                if clock < latest:
                    if state.pal is not None:
                        self._charge_emulation(
                            state, clock, page, frame, count, is_write
                        )
                    return clock
                result.faults.window_end_ms[frame.record] = latest
            frame.valid_bits = state.full_mask
            frame.pending = None
        return clock

    def _charge_emulation(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        frame: _Frame,
        count: int,
        is_write: bool,
    ) -> None:
        """Software protection: references to an incomplete page are
        emulated (Table 1 costs) until its last subpage arrives."""
        assert state.pal is not None and frame.pending is not None
        latest = frame.pending.latest()
        refs_until_done = int((latest - clock) / state.event_ms) + 1
        emulated = min(count, refs_until_done)
        state.result.components.emulation_ms += state.pal.charge_run(
            page, emulated, is_write
        )

    def _subpage_fault(
        self,
        state: "_RunState",
        clock: float,
        page: int,
        frame: _Frame,
        sp: int,
        block: int,
    ) -> float:
        """Lazy-scheme fault on a subpage of a resident page."""
        cfg = self.config
        (
            resume, valid_bits, follow, demand_wire_ms,
            background_ready_ms, background_wire_ms, cpu_overhead_ms,
        ) = self._plan(clock, page, sp, block)
        if cfg.congestion:
            state.link.demand(
                clock + self.latency.request_fixed_ms,
                demand_wire_ms,
                page=page,
            )
        frame.valid_bits |= valid_bits
        window_end = resume
        if follow:
            # Follow-on arrivals ride the shared link exactly like a page
            # fault's background transfer: register a fresh schedule with
            # the link model (so it queues behind in-flight traffic, can
            # be preempted by demand transfers, and carries a real
            # wire_end_ms for _reap/_evict accounting)...
            pending = PendingArrivals(
                arrival_ms=follow,
                wire_end_ms=background_ready_ms + background_wire_ms,
            )
            if cfg.congestion and background_wire_ms > 0:
                state.link.background(
                    background_ready_ms,
                    background_wire_ms,
                    pending,
                    page=page,
                )
            window_end = pending.latest()
            if frame.pending is None:
                frame.pending = pending
            else:
                # ... then fold it into the page's existing schedule.
                # The link keeps shifting the registered (fresh) object;
                # post-merge demand preemption does not propagate to the
                # merged copy.  Built-in schemes never reach this corner
                # (a subpage fault implies the earlier plan requested
                # only a subset of the page, i.e. no pending schedule).
                frame.pending.merge(pending)
        result = state.result
        sp_latency_ms = resume - clock
        result.faults.append(
            page, sp, _SUBPAGE, clock, sp_latency_ms, resume,
            window_end, cpu_overhead_ms, False,
        )
        if state.ins is not None:
            state.ins.on_fault(
                page, sp, _SUBPAGE, clock, sp_latency_ms, resume,
                window_end, cpu_overhead_ms, False,
            )
        result.subpage_faults += 1
        result.components.sp_latency_ms += sp_latency_ms
        result.components.cpu_overhead_ms += cpu_overhead_ms
        return resume + cpu_overhead_ms

    def _evict(self, state: "_RunState", clock: float) -> None:
        victim, frame = state.policy.evict(clock)
        state.result.evictions += 1
        cancelled = in_flight(frame, clock)
        if cancelled:
            state.result.cancelled_transfers += 1
        if frame.dirty:
            state.result.dirty_evictions += 1
        if state.ins is not None:
            state.ins.on_eviction(clock, victim, frame.dirty, cancelled)
        if state.tlb is not None:
            state.tlb.invalidate(victim)
        if state.cluster is not None:
            state.cluster.putpage(
                self.config.cluster_node_id,
                self._uid(victim),
                age=clock,
                dirty=frame.dirty,
            )

    # -- setup / teardown --------------------------------------------------

    def _uid(self, page: int) -> PageUid:
        """Cluster-wide UID for a local virtual page (see
        :func:`~repro.gms.ids.page_uid`)."""
        cfg = self.config
        return page_uid(cfg.cluster_node_id, page, cfg.shared_from_page)

    def _finalize(self, state: "_RunState", clock: float) -> None:
        result = state.result
        result.components.exec_ms = result.num_references * state.event_ms
        if state.tlb is not None:
            result.components.tlb_miss_ms = state.tlb.stats.miss_time_ms
            result.tlb_stats = {
                "accesses": state.tlb.stats.accesses,
                "misses": state.tlb.stats.misses,
                "miss_rate": state.tlb.stats.miss_rate,
            }
        if state.pal is not None:
            stats = state.pal.stats
            result.emulation_stats = {
                "emulated_accesses": stats.emulated_accesses,
                "overhead_ms": stats.overhead_ms,
                "fast_loads": stats.fast_loads,
                "slow_loads": stats.slow_loads,
                "fast_stores": stats.fast_stores,
                "slow_stores": stats.slow_stores,
            }
        result.link_stats = {
            "demand_transfers": state.link.demand_transfers,
            "background_transfers": state.link.background_transfers,
            "queueing_delay_ms": state.link.total_queueing_delay_ms,
            "preemption_delay_ms": state.link.total_preemption_delay_ms,
        }
        if state.cluster is not None:
            result.cluster_stats = state.cluster.stats.as_dict()
        if state.adaptive is not None:
            stats = state.adaptive.finish()
            if stats is not None:
                result.policy_stats = stats
        # Close any still-open fault windows at the end of the run.
        faults = result.faults
        faults.freeze()
        faults.window_end_ms = np.minimum(faults.window_end_ms, clock)
        if state.ins is not None:
            ins = state.ins
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


@dataclass(slots=True)
class _RunState:
    """Mutable per-run plumbing shared by the simulator's helpers."""

    #: Owns the resident set: ``policy.frames`` maps page -> _Frame.
    policy: ReplacementPolicy
    link: LinkModel
    disk: object
    tlb: TlbModel | None
    pal: PalEmulator | None
    cluster: Cluster | None
    result: SimulationResult
    event_ms: float
    full_mask: int
    ins: Instrument | None = None
    #: The scheme's adaptive controller, if any; fed access
    #: observations from the fault path and — on the ``"events"`` feed
    #: — per reference run.
    adaptive: "AdaptivePolicy | None" = None


def simulate(trace: RunTrace, config: SimulationConfig) -> SimulationResult:
    """Convenience: build a :class:`Simulator` and run one trace."""
    return Simulator(config).run(trace)
