"""Identifiers used by the global memory system.

GMS names pages with cluster-wide unique identifiers (UIDs) so that any
node can ask the directory about any page.  Here a UID is (node that owns
the address space, virtual page number); nodes are small integers.
Pages shared across workloads (library code and the like) live in the
common :data:`SHARED_ORIGIN` namespace instead; :func:`page_uid` is the
one mapping from a node's virtual page to its UID.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

NodeId = int

#: UID namespace for pages shared across workloads; disjoint from any
#: real node id.
SHARED_ORIGIN = 1 << 30


@dataclass(frozen=True, slots=True, order=True)
class PageUid:
    """Cluster-wide unique page identifier."""

    origin: NodeId
    vpn: int

    def __post_init__(self) -> None:
        if self.origin < 0:
            raise ConfigError(f"negative node id {self.origin}")
        if self.vpn < 0:
            raise ConfigError(f"negative virtual page number {self.vpn}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"uid({self.origin}:{self.vpn:#x})"


def page_uid(
    node: NodeId, vpn: int, shared_from_page: int | None = None
) -> PageUid:
    """The UID of virtual page ``vpn`` of the workload on ``node``.

    Pages at or above ``shared_from_page`` are shared: every workload
    names them in :data:`SHARED_ORIGIN`, so one node's fault can be
    served by a copy another node already holds (Section 2.1).
    """
    if shared_from_page is not None and vpn >= shared_from_page:
        return PageUid(SHARED_ORIGIN, vpn)
    return PageUid(node, vpn)
