"""Simulation configuration.

A :class:`SimulationConfig` is declarative: schemes and latency models
may be given as registry names / presets (strings, None) or as
constructed instances.  The :class:`~repro.sim.simulator.Simulator`
resolves them at construction time; the disk is always the paper's
preset (:func:`~repro.disk.presets.paper_disk`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.schemes import FetchScheme, make_scheme
from repro.errors import ConfigError, UnknownSchemeError
from repro.net.latency import LatencyModel
from repro.sim.replacement import policy_names
from repro.trace.compress import RunTrace
from repro.units import (
    DEFAULT_EVENT_NS,
    FULL_PAGE_BYTES,
    is_power_of_two,
)

#: Backing-store choices.
BACKINGS = ("remote", "disk", "cluster")

#: Subpage protection mechanisms: "tlb" models the paper's assumed
#: hardware support (free access checks); "palcode" models the prototype's
#: software emulation (Table 1 costs on incomplete pages).
PROTECTIONS = ("tlb", "palcode")


@dataclass(slots=True)
class SimulationConfig:
    """Everything that defines one simulation run.

    Attributes
    ----------
    memory_pages:
        Local memory capacity in pages (the paper's full/half/quarter
        memory configurations are fractions of the trace footprint; see
        :func:`memory_pages_for`).
    scheme:
        Fetch scheme registry name or instance;
        ``scheme_kwargs`` are forwarded when a name is given.
    subpage_bytes:
        Subpage size; equal to ``page_bytes`` means plain fullpage fetch.
    backing:
        ``"remote"`` — warm global cache, every fault serviced from remote
        memory (the paper's main configuration); ``"disk"`` — no network
        memory at all; ``"cluster"`` — faults go through the GMS cluster
        substrate (hit in global memory or fall through to disk).
    latency_model:
        ``None`` selects the calibrated (Table 2) model.
    event_ns:
        Cost of one memory-reference clock event (paper: 12 ns).
    use_trace_dilation:
        Multiply the event cost by the trace's dilation factor (on for
        down-scaled synthetic traces; see DESIGN.md).
    congestion:
        Model shared-receiver-link congestion (demand priority).
    protection:
        See :data:`PROTECTIONS`.
    tlb_entries / tlb_miss_ns:
        Optional TLB model (``tlb_entries=0`` disables it); used by the
        small-page ablation.
    cluster_nodes / cluster_idle_frames:
        GMS cluster geometry when ``backing="cluster"``: the active node
        plus ``cluster_nodes - 1`` idle nodes sharing
        ``cluster_idle_frames`` frames in total (default: twice the
        trace footprint, a warm cache that fits).
    observe:
        Comma-separated observability spec (``""`` disables — the
        default; ``"trace"``, ``"metrics"``, or ``"trace,metrics"``).
        When set, the run builds a :class:`~repro.obs.instrument.Recorder`
        and attaches its output to ``SimulationResult.trace_events`` /
        ``.metrics``.  See ``docs/OBSERVABILITY.md``.
    """

    memory_pages: int
    scheme: str | FetchScheme = "eager"
    scheme_kwargs: dict[str, Any] = field(default_factory=dict)
    subpage_bytes: int = 1024
    page_bytes: int = FULL_PAGE_BYTES
    backing: str = "remote"
    latency_model: LatencyModel | None = None
    event_ns: float = DEFAULT_EVENT_NS
    use_trace_dilation: bool = True
    replacement: str = "lru"
    congestion: bool = True
    protection: str = "tlb"
    tlb_entries: int = 0
    tlb_miss_ns: float = 400.0
    cluster_nodes: int = 4
    cluster_idle_frames: int | None = None
    #: Start with the workload's pages in remote memory (the paper's warm
    #: global cache, Section 4.1).  ``False`` models a cold start: first
    #: touches fill from disk and only re-faults hit global memory.
    cluster_warm: bool = True
    #: Which cluster node this workload runs on.  A simulator that
    #: builds its own cluster runs it on node 0; multi-workload
    #: scenarios pass a shared cluster and give each workload a
    #: distinct node id.
    cluster_node_id: int = 0
    #: Pages at or above this virtual page number are *shared* across
    #: workloads (e.g. shared library code): their cluster-wide UIDs use
    #: a common namespace instead of this node's, so a fault can be
    #: served by a copy another active node already has.
    shared_from_page: int | None = None
    observe: str = ""
    seed: int = 0
    name: str = ""

    def validate(self) -> None:
        if self.memory_pages < 1:
            raise ConfigError("memory_pages must be >= 1")
        if not is_power_of_two(self.page_bytes):
            raise ConfigError(
                f"page_bytes {self.page_bytes} is not a power of two"
            )
        if not is_power_of_two(self.subpage_bytes):
            raise ConfigError(
                f"subpage_bytes {self.subpage_bytes} is not a power of two"
            )
        if self.subpage_bytes > self.page_bytes:
            raise ConfigError("subpage_bytes exceeds page_bytes")
        if self.backing not in BACKINGS:
            raise ConfigError(
                f"backing {self.backing!r} not one of {BACKINGS}"
            )
        if self.replacement not in policy_names():
            raise ConfigError(
                f"replacement {self.replacement!r} not one of "
                f"{policy_names()}"
            )
        if self.protection not in PROTECTIONS:
            raise ConfigError(
                f"protection {self.protection!r} not one of {PROTECTIONS}"
            )
        if self.event_ns <= 0:
            raise ConfigError("event_ns must be positive")
        if self.tlb_entries < 0:
            raise ConfigError("tlb_entries cannot be negative")
        if self.tlb_miss_ns < 0:
            raise ConfigError("tlb_miss_ns cannot be negative")
        if self.cluster_nodes < 2 and self.backing == "cluster":
            raise ConfigError("a cluster needs cluster_nodes >= 2")
        if self.cluster_node_id < 0:
            raise ConfigError("cluster_node_id cannot be negative")
        if self.shared_from_page is not None and self.shared_from_page < 0:
            raise ConfigError("shared_from_page cannot be negative")
        if self.observe:
            from repro.obs.instrument import parse_observe_spec

            parse_observe_spec(self.observe)

    def build_scheme(self) -> FetchScheme:
        try:
            return make_scheme(self.scheme, **self.scheme_kwargs)
        except UnknownSchemeError as exc:
            raise UnknownSchemeError(
                f"config field 'scheme': {exc}"
            ) from None
        except TypeError as exc:
            raise ConfigError(
                f"config field 'scheme_kwargs' does not fit scheme "
                f"{self.scheme!r}: {exc}"
            ) from exc

    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)

    def scheme_label(self) -> str:
        """Display label in the paper's style (p_8192 / sp_1024 / ...)."""
        if self.backing == "disk":
            return f"disk_{self.page_bytes}"
        return self.build_scheme().label(
            self.subpage_bytes, self.page_bytes
        )


def memory_pages_for(trace: RunTrace, fraction: float) -> int:
    """Memory size as a fraction of the trace footprint (>= 1 page).

    The paper's configurations: *full-mem* (1.0) gives the program all
    the memory it needs, *1/2-mem* (0.5) and *1/4-mem* (0.25) stress it.
    """
    if fraction <= 0:
        raise ConfigError("memory fraction must be positive")
    return max(1, round(trace.footprint_pages() * fraction))
