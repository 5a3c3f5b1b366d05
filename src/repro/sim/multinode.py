"""Multi-workload cluster scenarios.

The paper's global-memory setting has several *active* nodes sharing the
idle memory of lightly-loaded peers, and notes that "a fault on node A
may be satisfied by node B, either because B has stored A's page in its
'global memory', or because A has faulted a page actively in use by B
(e.g., a shared code page)" (Section 2.1).

This module orchestrates that scenario on top of the single-workload
simulator: one GMS cluster, one node (and one :class:`Simulator` run) per
workload, a warm-filled global cache, and an optional *shared region* —
pages every workload names through a common UID namespace, so the second
workload's faults on them are served by copying the first workload's
resident pages.

Workloads run one after another against the shared cluster state.  That
sequential composition captures the capacity and sharing interactions
(who holds what, where faults are served from); it deliberately does not
model timing *interference* between concurrently running programs, which
the paper does not study either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.gms.cluster import Cluster
from repro.gms.ids import PageUid
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import SHARED_ORIGIN, Simulator
from repro.trace.compress import RunTrace


@dataclass(frozen=True, slots=True)
class NodeWorkload:
    """One active node's workload and paging configuration."""

    name: str
    trace: RunTrace
    memory_pages: int
    scheme: str = "eager"
    subpage_bytes: int = 1024
    #: Pages >= this VPN are shared with every other workload.
    shared_from_page: int | None = None

    def __post_init__(self) -> None:
        if self.memory_pages < 1:
            raise ConfigError("memory_pages must be >= 1")


@dataclass(slots=True)
class MultiNodeResult:
    """Per-workload results plus the shared cluster's statistics."""

    per_node: dict[str, SimulationResult] = field(default_factory=dict)
    cluster_stats: dict[str, float] = field(default_factory=dict)

    @property
    def shared_copies(self) -> int:
        return int(self.cluster_stats.get("shared_copies", 0))

    @property
    def total_faults(self) -> int:
        return sum(r.page_faults for r in self.per_node.values())


def build_shared_cluster(
    workloads: list[NodeWorkload],
    idle_nodes: int = 2,
    idle_frames: int | None = None,
    seed: int = 0,
    warm: bool = True,
) -> Cluster:
    """One shared GMS cluster for several workloads.

    Node ``i`` belongs to workload ``i`` and is sized to its memory
    configuration; ``idle_nodes`` additional nodes supply the global
    cache.  With ``warm=True`` every workload's pages (shared pages only
    once) start in remote memory, matching the paper's warm-cache setup.
    Both the sequential (:func:`run_multi_workload`) and interleaved
    (:func:`repro.sim.multitenant.run_multi_tenant`) paths start from
    this exact state — a precondition of their bit-identity.
    """
    if not workloads:
        raise ConfigError("need at least one workload")
    if idle_nodes < 1:
        raise ConfigError("need at least one idle node")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ConfigError("workload names must be unique")

    cluster = Cluster(seed=seed)
    footprints = [w.trace.footprint_pages() for w in workloads]
    per_idle = (
        idle_frames
        if idle_frames is not None
        else max(1, -(-2 * sum(footprints) // idle_nodes))
    )
    cluster.add_nodes(
        [w.memory_pages for w in workloads] + [per_idle] * idle_nodes
    )

    if warm:
        uids: list[PageUid] = []
        for node_id, workload in enumerate(workloads):
            for vpn in np.unique(workload.trace.pages).tolist():
                if (
                    workload.shared_from_page is not None
                    and vpn >= workload.shared_from_page
                ):
                    uids.append(PageUid(SHARED_ORIGIN, vpn))
                else:
                    uids.append(PageUid(node_id, vpn))
        cluster.warm_fill_uids(
            uids, exclude=tuple(range(len(workloads)))
        )
    return cluster


def workload_config(
    workload: NodeWorkload, node_id: int, seed: int = 0
) -> SimulationConfig:
    """The per-workload simulator configuration both paths share."""
    return SimulationConfig(
        memory_pages=workload.memory_pages,
        scheme=workload.scheme,
        subpage_bytes=workload.subpage_bytes,
        backing="cluster",
        cluster_node_id=node_id,
        shared_from_page=workload.shared_from_page,
        seed=seed,
    )


def run_multi_workload(
    workloads: list[NodeWorkload],
    idle_nodes: int = 2,
    idle_frames: int | None = None,
    seed: int = 0,
    warm: bool = True,
) -> MultiNodeResult:
    """Run several workloads against one shared GMS cluster.

    Workloads run one after another (see the module docstring); use
    :func:`repro.sim.multitenant.run_multi_tenant` for the interleaved,
    interference-modelling composition.
    """
    cluster = build_shared_cluster(
        workloads, idle_nodes=idle_nodes, idle_frames=idle_frames,
        seed=seed, warm=warm,
    )
    result = MultiNodeResult()
    for node_id, workload in enumerate(workloads):
        config = workload_config(workload, node_id, seed=seed)
        simulator = Simulator(config, cluster=cluster)
        result.per_node[workload.name] = simulator.run(workload.trace)
    result.cluster_stats = cluster.stats.as_dict()
    return result
