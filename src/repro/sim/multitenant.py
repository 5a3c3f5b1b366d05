"""Interleaved multi-tenant simulation against one shared GMS cluster.

Several workloads (:class:`~repro.sim.multinode.NodeWorkload`) run at
once on their own nodes of one cluster, so they contend for frames,
directory entries and the wire at the same virtual time.  A
virtual-time scheduler interleaves them:

* every tenant gets its own :class:`~repro.sim.simulator.Simulator`
  (own node, own link, own replacement state) against one shared
  :class:`~repro.gms.cluster.Cluster` built by
  :func:`~repro.gms.cluster.build_cluster`, the builder a single
  simulation uses too;
* a min-heap keyed on ``(virtual clock, tenant index)`` always advances
  the tenant that is earliest in virtual time, so getpage/putpage
  traffic from different tenants hits the cluster in global time order
  and page ages are cross-tenant comparable.  The popped tenant runs a
  clock-bounded slice of the drive loop
  (:meth:`Simulator._drive` with ``until``): it keeps
  executing runs for as long as it would still be the heap minimum,
  which is exactly the order a one-run-per-pop scheduler produces, at
  one float compare per run instead of one heap push and pop;
* an optional :class:`~repro.net.congestion.CrossTraffic` fabric couples
  the tenants' links, so one tenant's subpage pipeline queues behind
  another's demand transfers (with per-tenant attribution).

Scheduling granularity is one compressed run: events *inside* the run a
tenant is currently executing are applied to shared state when that run
executes, which can be slightly after a later-clocked neighbour's —
bounded by one run's span.  With a single tenant the scheduler degrades
to exactly a plain :func:`~repro.sim.simulator.simulate` of the same
configuration with ``cluster_nodes = 1 + idle_nodes`` (the regression
anchor asserted in ``tests/sim/test_multitenant.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigError
from repro.gms.cluster import ActiveNode, build_cluster
from repro.net.congestion import CrossTraffic
from repro.sim.multinode import NodeWorkload, workload_config
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tenants import TenantLatencyReport


@dataclass(slots=True)
class MultiTenantResult:
    """Per-tenant results plus shared-substrate statistics."""

    per_tenant: dict[str, SimulationResult] = field(default_factory=dict)
    cluster_stats: dict[str, float] = field(default_factory=dict)
    #: Interference each tenant *received* on its link
    #: (:meth:`LinkModel.cross_stats`), keyed by tenant name.
    cross_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Wire-time each tenant *caused* on other tenants' links, ms.
    injected_ms: dict[str, float] = field(default_factory=dict)

    @property
    def total_faults(self) -> int:
        return sum(r.page_faults for r in self.per_tenant.values())

    @property
    def shared_copies(self) -> int:
        return int(self.cluster_stats.get("shared_copies", 0))

    def latency_report(
        self, baselines: Mapping[str, float] | None = None
    ) -> "TenantLatencyReport":
        """Per-tenant p50/p99 tails and fairness (see
        :mod:`repro.obs.tenants`); ``baselines`` maps tenant name to its
        solo ``total_ms`` for slowdown computation."""
        from repro.obs.tenants import TenantLatencyReport

        return TenantLatencyReport.from_results(
            self.per_tenant, baselines=baselines
        )


def run_multi_tenant(
    workloads: list[NodeWorkload],
    idle_nodes: int = 2,
    idle_frames: int | None = None,
    seed: int = 0,
    warm: bool = True,
    cross_traffic: bool = True,
) -> MultiTenantResult:
    """Run several workloads interleaved against one shared cluster.

    Workload ``i`` runs on node ``i`` of
    :func:`~repro.gms.cluster.build_cluster`'s cluster; ``idle_nodes``
    idle nodes share ``idle_frames`` frames (default: twice the
    workloads' combined footprint), and ``warm`` starts every
    workload's pages in their global memory, as many as fit.
    ``cross_traffic`` couples the tenants' links through a shared
    fabric.  With one workload the result is bit-identical to a plain
    simulation of its :func:`~repro.sim.multinode.workload_config` with
    ``cluster_nodes = 1 + idle_nodes`` (the fabric is inert with a
    single link).
    """
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ConfigError("workload names must be unique")
    cluster = build_cluster(
        [
            ActiveNode(w.memory_pages, w.trace.pages, w.shared_from_page)
            for w in workloads
        ],
        idle_nodes=idle_nodes,
        idle_frames=idle_frames,
        seed=seed,
        warm=warm,
    )
    fabric = CrossTraffic() if cross_traffic else None

    # One simulator per tenant, holding its run, and the tenant's
    # cursor: its runs iterator and the page it stopped on.
    tenants = []
    for node_id, workload in enumerate(workloads):
        config = workload_config(workload, node_id, seed=seed)
        simulator = Simulator(
            config,
            cluster=cluster,
            link_fabric=fabric,
            link_label=workload.name,
        )
        tenants.append((simulator, [simulator._prepare(workload.trace), -1]))

    # Virtual-time scheduling: always advance the tenant whose clock is
    # smallest (ties broken by tenant index, i.e. workload order).  The
    # popped tenant i keeps the CPU while (clock, i) stays below the
    # next entry (c, j): up to and including c when i < j, strictly
    # below c otherwise.
    final_clock = [0.0] * len(tenants)
    heap = [(0.0, i) for i in range(len(tenants))]
    heapq.heapify(heap)
    while heap:
        clock, i = heapq.heappop(heap)
        if heap:
            c, j = heap[0]
            until = c if i < j else math.nextafter(c, -math.inf)
        else:
            until = math.inf
        simulator, cursor = tenants[i]
        clock, last_page = simulator._drive(
            cursor[0], clock, cursor[1], until
        )
        if last_page is None:
            final_clock[i] = clock
        else:
            cursor[1] = last_page
            heapq.heappush(heap, (clock, i))

    result = MultiTenantResult()
    for workload, (simulator, _), clock in zip(
        workloads, tenants, final_clock
    ):
        result.per_tenant[workload.name] = simulator._finish(clock)
        if fabric is not None:
            result.cross_stats[workload.name] = simulator.link.cross_stats()
    result.cluster_stats = cluster.stats.as_dict()
    if fabric is not None:
        result.injected_ms = dict(fabric.injected_ms)
    return result
