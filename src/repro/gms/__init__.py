"""Global memory system (GMS) substrate.

The paper's prototype extends GMS — the global memory management system of
Feeley et al. (SOSP 1995, reference [7]) — in which the idle memory of
lightly-loaded nodes holds pages evicted by heavily-loaded ones.  This
package implements that substrate:

* :mod:`repro.gms.ids` — node and global page identifiers;
* :mod:`repro.gms.node` — a node's memory, split into local (active) and
  global (stored on behalf of others) frames;
* :mod:`repro.gms.directory` — the page-ownership directory (POD) and the
  distributed global-cache directory (GCD) mapping pages to nodes;
* :mod:`repro.gms.epoch` — epoch-based global replacement: per-epoch
  weights steer evictions toward the nodes holding the globally oldest
  pages;
* :mod:`repro.gms.cluster` — the cluster facade with ``getpage`` /
  ``putpage`` and message accounting, and :func:`build_cluster`, the one
  builder every simulation's cluster comes from.

The paper's simulations assume a *warm* global cache (every faulted page
is in some idle node's memory).  With this substrate that is a
configuration — a cluster with enough idle memory — rather than a stub.
"""

from repro.gms.cluster import (
    ActiveNode,
    Cluster,
    GetPageResult,
    PageLocation,
    build_cluster,
)
from repro.gms.directory import GlobalCacheDirectory, PageOwnershipDirectory
from repro.gms.epoch import EpochManager, EpochParams
from repro.gms.ids import SHARED_ORIGIN, NodeId, PageUid, page_uid
from repro.gms.node import Node, NodeMemoryStats

__all__ = [
    "SHARED_ORIGIN",
    "ActiveNode",
    "Cluster",
    "EpochManager",
    "EpochParams",
    "GetPageResult",
    "GlobalCacheDirectory",
    "Node",
    "NodeId",
    "NodeMemoryStats",
    "PageLocation",
    "PageOwnershipDirectory",
    "PageUid",
    "build_cluster",
    "page_uid",
]
