"""The ``Instrument`` protocol: fault-path hooks for the simulator stack.

``Simulator``, ``LinkModel``, ``DiskModel``, and ``Cluster`` accept an
optional :class:`Instrument` and invoke its hooks at fault-path events
(never on the per-reference hot loop).  Every call site guards with
``if instrument is not None``, so with instrumentation disabled the only
cost is that branch.  Hooks take plain values and build no objects;
the instrumentation gate of ``tools/bench_throughput.py`` holds a fully
dispatched no-op instrument to the <5% budget.

:class:`Recorder` is the standard implementation: it fans hook calls out
to a :class:`~repro.obs.tracing.TraceWriter` (event stream) and/or a
:class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/histograms).
``SimulationConfig.observe`` ("trace", "metrics", or "trace,metrics")
makes :func:`~repro.sim.simulator.simulate` build one per run and attach
its output to ``SimulationResult.trace_events`` / ``.metrics``.

Counter names mirror ``SimulationResult`` fields one-for-one so a
metrics dump can be cross-checked against the aggregate result:

================== ==============================
counter            SimulationResult field
================== ==============================
faults_remote      remote_faults
faults_disk        disk_faults
faults_subpage     subpage_faults
faults_overlapped  overlapped_faults
evictions          evictions
evictions_dirty    dirty_evictions
transfers_cancelled cancelled_transfers
================== ==============================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.fault import FAULT_KINDS
from repro.errors import ConfigError
from repro.obs.metrics import (
    DISTANCE_BOUNDS,
    MetricsRegistry,
)
from repro.obs.tracing import TraceWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import SimulationResult

#: Valid tokens for ``SimulationConfig.observe`` / ``--observe`` specs.
OBSERVE_TOKENS = frozenset({"trace", "metrics"})


def parse_observe_spec(spec: str) -> frozenset[str]:
    """Parse a comma-separated observe spec, validating its tokens."""
    parts = frozenset(p.strip() for p in spec.split(",") if p.strip())
    unknown = parts - OBSERVE_TOKENS
    if unknown:
        raise ConfigError(
            f"unknown observe token(s) {sorted(unknown)}; "
            f"expected a comma-separated subset of "
            f"{sorted(OBSERVE_TOKENS)}"
        )
    return parts


class Instrument:
    """No-op base class for observability hooks.

    Subclass and override the hooks you care about; the base class makes
    every hook a cheap no-op so partial implementations stay valid as
    hooks are added.
    """

    def on_fault(
        self,
        page: int,
        subpage: int,
        kind: int,
        time_ms: float,
        sp_latency_ms: float,
        window_start_ms: float,
        window_end_ms: float,
        cpu_overhead_ms: float,
        overlapped_another: bool,
    ) -> None:
        """A fault was serviced.

        The arguments are the row :meth:`FaultLog.append
        <repro.core.fault.FaultLog.append>` receives, in its order
        (``kind`` is the :data:`~repro.core.fault.KIND_CODES` code), as
        known at service time.  Page waits accrue afterwards, and
        ``window_end_ms`` moves to the last arrival when the page's
        transfers fold and is capped at the end of the run; the
        result's fault log holds the final values."""

    def on_stall(
        self, start_ms: float, end_ms: float, kind: str, page: int
    ) -> None:
        """The program stalled on ``page`` from ``start_ms`` to
        ``end_ms`` (``kind`` is ``"page_wait"``; fault-service stalls are
        implied by :meth:`on_fault`)."""

    def on_transfer(
        self,
        kind: str,
        start_ms: float,
        end_ms: float,
        page: int | None = None,
        queue_delay_ms: float = 0.0,
    ) -> None:
        """A wire transfer occupied the link (``kind`` is ``"demand"``
        or ``"background"``; ``queue_delay_ms`` is time spent queued
        behind earlier traffic before ``start_ms``)."""

    def on_eviction(
        self, time_ms: float, page: int, dirty: bool, cancelled: bool
    ) -> None:
        """``page`` was evicted (``cancelled`` means an in-flight
        transfer for it was abandoned)."""

    def counter(self, name: str, value: float = 1) -> None:
        """Increment a named counter (component-level bookkeeping)."""

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Record a sample into a named histogram."""

    def publish(self, group: str, stats: Mapping[str, Any]) -> None:
        """Publish a component's end-of-run stats dict (``link``,
        ``tlb``, ``cluster``, ``disk``, ``emulation``) as gauges."""

    def on_run_end(self, result: "SimulationResult") -> None:
        """The run finished; ``result`` is fully populated."""


class Recorder(Instrument):
    """Standard :class:`Instrument` feeding a trace and/or metrics."""

    def __init__(
        self,
        trace: TraceWriter | None = None,
        metrics: MetricsRegistry | None = None,
        node: int = 0,
    ) -> None:
        self.trace = trace
        self.metrics = metrics
        self.node = node

    @classmethod
    def from_spec(cls, spec: str, node: int = 0) -> "Recorder":
        """Build a recorder from an observe spec (``"trace,metrics"``)."""
        parts = parse_observe_spec(spec)
        return cls(
            trace=TraceWriter() if "trace" in parts else None,
            metrics=MetricsRegistry() if "metrics" in parts else None,
            node=node,
        )

    # -- hook implementations ----------------------------------------------

    def on_fault(
        self,
        page: int,
        subpage: int,
        kind: int,
        time_ms: float,
        sp_latency_ms: float,
        window_start_ms: float,
        window_end_ms: float,
        cpu_overhead_ms: float,
        overlapped_another: bool,
    ) -> None:
        kind = FAULT_KINDS[kind].value
        metrics = self.metrics
        if metrics is not None:
            metrics.inc(f"faults_{kind}")
            if overlapped_another:
                metrics.inc("faults_overlapped")
            metrics.observe("fault_sp_latency_ms", sp_latency_ms)
        trace = self.trace
        if trace is not None:
            trace.emit(
                "fault", time_ms, node=self.node,
                page=page, subpage=subpage, kind=kind,
                sp_latency_ms=sp_latency_ms,
                overlapped=overlapped_another,
            )
            if sp_latency_ms > 0:
                trace.emit(
                    "stall", time_ms,
                    dur_ms=sp_latency_ms, node=self.node,
                    page=page, kind=kind,
                )
            if kind == "disk":
                trace.emit(
                    "transfer", time_ms,
                    dur_ms=sp_latency_ms, node=self.node,
                    page=page, kind="disk",
                )

    def on_stall(
        self, start_ms: float, end_ms: float, kind: str, page: int
    ) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("stalls_page_wait")
            metrics.observe("page_wait_ms", end_ms - start_ms)
        if self.trace is not None:
            self.trace.emit(
                "stall", start_ms, dur_ms=end_ms - start_ms,
                node=self.node, page=page, kind=kind,
            )

    def on_transfer(
        self,
        kind: str,
        start_ms: float,
        end_ms: float,
        page: int | None = None,
        queue_delay_ms: float = 0.0,
    ) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc(f"transfers_{kind}")
            metrics.observe("transfer_wire_ms", end_ms - start_ms)
            if queue_delay_ms > 0:
                metrics.inc("transfer_queue_delay_ms", queue_delay_ms)
        if self.trace is not None:
            self.trace.emit(
                "transfer", start_ms, dur_ms=end_ms - start_ms,
                node=self.node, page=page, kind=kind,
                queue_delay_ms=queue_delay_ms,
            )

    def on_eviction(
        self, time_ms: float, page: int, dirty: bool, cancelled: bool
    ) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("evictions")
            if dirty:
                metrics.inc("evictions_dirty")
            if cancelled:
                metrics.inc("transfers_cancelled")
        if self.trace is not None:
            self.trace.emit(
                "eviction", time_ms, node=self.node, page=page,
                dirty=dirty, cancelled=cancelled,
            )

    def counter(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    def observe(self, name: str, value: float, count: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, count)

    def publish(self, group: str, stats: Mapping[str, Any]) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            metrics.set_gauge(f"{group}_{key}", value)

    def on_run_end(self, result: "SimulationResult") -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.set_gauge("sim_total_ms", result.total_ms)
        metrics.set_gauge("sim_references", result.num_references)
        for waiting_ms in result.faults.waiting_ms().tolist():
            metrics.observe("fault_waiting_ms", waiting_ms)
        for distance, count in result.distance_histogram.items():
            metrics.observe(
                "next_subpage_distance", distance, count=count,
                bounds=DISTANCE_BOUNDS,
            )
