"""Simulation results.

A :class:`SimulationResult` carries both the headline time components the
paper's bar charts plot (execution, subpage latency, page wait — Figures
3, 4, 8, 9) and the raw per-fault material its analysis figures are built
from (sorted waiting times — Figure 5; temporal clustering — Figures 6
and 10; next-subpage distances — Figure 7; overlap attribution —
Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.fault import FaultKind, FaultLog, FaultRecord


@dataclass(slots=True)
class TimeComponents:
    """Additive components of total simulated runtime (milliseconds)."""

    exec_ms: float = 0.0
    sp_latency_ms: float = 0.0
    page_wait_ms: float = 0.0
    cpu_overhead_ms: float = 0.0
    emulation_ms: float = 0.0
    tlb_miss_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.exec_ms
            + self.sp_latency_ms
            + self.page_wait_ms
            + self.cpu_overhead_ms
            + self.emulation_ms
            + self.tlb_miss_ms
        )

    def fractions(self) -> dict[str, float]:
        """Each component as a fraction of the total (Figure 4's bars)."""
        total = self.total_ms
        if total <= 0:
            return {name: 0.0 for name in self.as_dict()}
        return {name: value / total for name, value in self.as_dict().items()}

    def as_dict(self) -> dict[str, float]:
        return {
            "exec_ms": self.exec_ms,
            "sp_latency_ms": self.sp_latency_ms,
            "page_wait_ms": self.page_wait_ms,
            "cpu_overhead_ms": self.cpu_overhead_ms,
            "emulation_ms": self.emulation_ms,
            "tlb_miss_ms": self.tlb_miss_ms,
        }


@dataclass(slots=True)
class SimulationResult:
    """Everything one simulation run produced."""

    trace_name: str
    scheme_label: str
    scheme_name: str
    subpage_bytes: int
    page_bytes: int
    memory_pages: int
    backing: str
    num_references: int
    num_runs: int
    event_cost_ms: float
    components: TimeComponents = field(default_factory=TimeComponents)

    # Fault accounting.
    remote_faults: int = 0
    disk_faults: int = 0
    subpage_faults: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    overlapped_faults: int = 0
    #: Pages evicted while subpage transfers were still in flight (their
    #: remaining arrivals were wasted network work).
    cancelled_transfers: int = 0

    # Raw material for the analysis figures: one row per fault, as
    # NumPy columns once the run has finished.
    faults: FaultLog = field(default_factory=FaultLog)
    distance_histogram: dict[int, int] = field(default_factory=dict)

    # Substrate statistics (shapes depend on configuration).
    link_stats: dict[str, float] = field(default_factory=dict)
    tlb_stats: dict[str, float] = field(default_factory=dict)
    emulation_stats: dict[str, float] = field(default_factory=dict)
    cluster_stats: dict[str, float] = field(default_factory=dict)
    #: Adaptive-policy scoreboard (``repro.policy``): prediction counts,
    #: hit/miss/coverage rates, wasted-prefetch bytes.  Empty for static
    #: schemes and for the adaptive scheme in transparent (static-
    #: predictor) mode, so such results compare equal to the plain
    #: pipelined scheme's.
    policy_stats: dict[str, float] = field(default_factory=dict)

    # Observability payloads (``SimulationConfig.observe``): a serialized
    # metrics registry (``repro.obs.metrics.MetricsRegistry.as_dict``)
    # and the normalized trace-event stream.  ``None`` when disabled.
    metrics: dict[str, Any] | None = None
    trace_events: list[dict[str, Any]] | None = None

    # -- headline numbers --------------------------------------------------

    @property
    def total_ms(self) -> float:
        return self.components.total_ms

    @property
    def page_faults(self) -> int:
        """Page faults proper (excluding lazy per-subpage faults)."""
        return self.remote_faults + self.disk_faults

    @property
    def total_faults(self) -> int:
        return self.page_faults + self.subpage_faults

    def speedup_vs(self, baseline: "SimulationResult") -> float:
        """How much faster this run is than ``baseline`` (>1 = faster)."""
        if self.total_ms <= 0:
            return float("inf")
        return baseline.total_ms / self.total_ms

    def improvement_vs(self, baseline: "SimulationResult") -> float:
        """Fractional runtime reduction vs ``baseline`` (0.25 = 25%)."""
        if baseline.total_ms <= 0:
            return 0.0
        return 1.0 - self.total_ms / baseline.total_ms

    # -- per-fault views ---------------------------------------------------

    @property
    def fault_records(self) -> list[FaultRecord]:
        """The faults as :class:`FaultRecord` objects, built on demand
        from the log (changing them does not change the result)."""
        return self.faults.records()

    @property
    def stall_intervals(self) -> list[tuple[float, float]]:
        """Every stall as ``(start_ms, end_ms)``, in start order.

        Derived from the fault log: each fault's service stall
        ``(time_ms, window_start_ms)`` (the program resumes at
        ``window_start_ms`` on every fault path) merged with every
        page-wait interval.  Stall starts strictly increase — at most
        one stall per reference run, and every run advances the clock —
        so the intervals are disjoint and the sort is exact.
        """
        starts, ends = self.faults.stalls()
        return list(zip(starts.tolist(), ends.tolist()))

    def fault_times_ms(self) -> np.ndarray:
        """Fault occurrence times, in trace order (Figures 6/10)."""
        return self.faults.array("time_ms").copy()

    def waiting_times_ms(self) -> np.ndarray:
        """Per-fault total waiting time (Figure 5's Y values)."""
        return self.faults.waiting_ms()

    def records_of_kind(self, kind: FaultKind) -> list[FaultRecord]:
        return self.faults.records(kind)

    # -- serialization -----------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """A JSON-able summary (without per-fault records)."""
        return {
            "trace": self.trace_name,
            "scheme": self.scheme_label,
            "subpage_bytes": self.subpage_bytes,
            "memory_pages": self.memory_pages,
            "backing": self.backing,
            "references": self.num_references,
            "total_ms": self.total_ms,
            "components": self.components.as_dict(),
            "remote_faults": self.remote_faults,
            "disk_faults": self.disk_faults,
            "subpage_faults": self.subpage_faults,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "cancelled_transfers": self.cancelled_transfers,
            "overlapped_faults": self.overlapped_faults,
            "link_stats": dict(self.link_stats),
            "policy_stats": dict(self.policy_stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SimulationResult {self.trace_name}/{self.scheme_label} "
            f"mem={self.memory_pages}p total={self.total_ms:.1f}ms "
            f"faults={self.total_faults}>"
        )
