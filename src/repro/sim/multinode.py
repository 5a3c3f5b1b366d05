"""Workloads of a multi-node cluster scenario.

The paper's global-memory setting has several *active* nodes sharing the
idle memory of lightly-loaded peers, and notes that "a fault on node A
may be satisfied by node B, either because B has stored A's page in its
'global memory', or because A has faulted a page actively in use by B
(e.g., a shared code page)" (Section 2.1).

A :class:`NodeWorkload` is one active node's trace and paging setup,
optionally with a *shared region*: pages every workload names through a
common UID namespace, so one workload's faults on them can be served by
copying another's resident pages.  :func:`workload_config` is the
simulator configuration of the workload on its node;
:func:`repro.sim.multitenant.run_multi_tenant` runs several of them
interleaved against one cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.config import SimulationConfig
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


def workload_config(
    workload: NodeWorkload, node_id: int, seed: int = 0
) -> SimulationConfig:
    """The simulator configuration of ``workload`` on node ``node_id``."""
    return SimulationConfig(
        memory_pages=workload.memory_pages,
        scheme=workload.scheme,
        subpage_bytes=workload.subpage_bytes,
        backing="cluster",
        cluster_node_id=node_id,
        shared_from_page=workload.shared_from_page,
        seed=seed,
    )
