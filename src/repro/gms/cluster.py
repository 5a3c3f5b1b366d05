"""The GMS cluster facade: getpage / putpage over nodes and directories.

This is the substrate the faulting node's paging path talks to.  A fault
that misses in local memory asks the cluster where the page is
(``getpage``); an eviction hands the page to the cluster (``putpage``),
which forwards it to an idle node chosen by the epoch algorithm or lets it
fall to disk if it is among the globally oldest.

Message counting follows the GMS protocol shape: a getpage costs a request
to the page's directory manager, a forward to the storing node, and the
data transfer back; a putpage costs the data transfer plus a directory
update.  Messages to oneself are free.

:func:`build_cluster` sizes and warm-fills the cluster every simulation
runs against, one workload or several.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.errors import CapacityError, ConfigError, GmsError
from repro.gms.directory import GlobalCacheDirectory, PageOwnershipDirectory
from repro.gms.epoch import EpochManager, EpochParams
from repro.gms.ids import NodeId, PageUid, page_uid
from repro.gms.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Instrument


class PageLocation(enum.Enum):
    """Where a faulted page was found."""

    LOCAL_GLOBAL = "requester-global"  # hosted by the requester itself
    REMOTE_MEMORY = "remote"
    DISK = "disk"


@dataclass(frozen=True, slots=True)
class GetPageResult:
    """Outcome of one getpage operation."""

    uid: PageUid
    location: PageLocation
    serving_node: NodeId | None
    messages: int


@dataclass(slots=True)
class ClusterStats:
    """Cumulative protocol statistics."""

    getpages: int = 0
    remote_hits: int = 0
    local_global_hits: int = 0
    #: Remote hits served by *copying* a page another node is actively
    #: using (a shared page, e.g. library code) rather than moving it.
    shared_copies: int = 0
    disk_fills: int = 0
    putpages: int = 0
    discards: int = 0
    disk_writebacks: int = 0
    messages: int = 0

    @property
    def global_hit_ratio(self) -> float:
        if self.getpages == 0:
            return 0.0
        return (self.remote_hits + self.local_global_hits) / self.getpages

    def as_dict(self) -> dict[str, float]:
        """These statistics as a plain dict (results, metrics)."""
        return {
            "getpages": self.getpages,
            "remote_hits": self.remote_hits,
            "local_global_hits": self.local_global_hits,
            "shared_copies": self.shared_copies,
            "disk_fills": self.disk_fills,
            "putpages": self.putpages,
            "discards": self.discards,
            "disk_writebacks": self.disk_writebacks,
            "messages": self.messages,
            "global_hit_ratio": self.global_hit_ratio,
        }


class Cluster:
    """A set of GMS nodes sharing their memory.

    ``instrument`` optionally receives per-operation counters
    (``gms_getpage_*`` / ``gms_putpages``); cumulative protocol stats are
    always available in :attr:`stats`.
    """

    def __init__(
        self,
        epoch_params: EpochParams | None = None,
        seed: int = 0,
        instrument: "Instrument | None" = None,
    ) -> None:
        self._nodes: dict[NodeId, Node] = {}
        self._pod: PageOwnershipDirectory | None = None
        self._gcd: GlobalCacheDirectory | None = None
        self._epoch = EpochManager(epoch_params, seed=seed)
        self.stats = ClusterStats()
        self._dirty: set[PageUid] = set()
        self._ins = instrument
        #: How many times the POD/GCD were rebuilt (each rebuild rehashes
        #: every placement, so construction cost is rebuilds x entries).
        self.directory_rebuilds = 0

    # -- construction ------------------------------------------------------

    def add_node(self, capacity: int) -> Node:
        """Add a node; invalidates and rebuilds the directories."""
        return self.add_nodes([capacity])[0]

    def add_nodes(self, capacities: list[int]) -> list[Node]:
        """Add several nodes with a single directory rebuild at the end.

        ``add_node`` rehashes the POD and re-inserts every directory
        entry per call, which makes an N-node cluster O(N^2) to
        construct; batching the adds keeps the figMT 256-node setup
        linear.  The resulting cluster state is identical to N
        ``add_node`` calls.
        """
        added: list[Node] = []
        for capacity in capacities:
            node_id = len(self._nodes)
            node = Node(node_id, capacity)
            self._nodes[node_id] = node
            added.append(node)
        if added:
            self._rebuild_directories()
        return added

    def _rebuild_directories(self) -> None:
        """Rehash the POD over the current nodes and rebuild the GCD.

        Entries are carried over from the previous GCD (not re-scanned
        from node placements) so the authoritative holder of a shared
        page survives the rebuild — a placement scan would re-point the
        entry at whichever copy the scan visited last.  Copysets are
        carried over with them.
        """
        self._pod = PageOwnershipDirectory(list(self._nodes))
        old = self._gcd
        self._gcd = GlobalCacheDirectory(self._pod)
        self.directory_rebuilds += 1
        if old is None:
            return
        for uid, holder in old.entries():
            self._gcd.update(uid, holder)
            for sharer in old.sharers(uid):
                self._gcd.add_sharer(uid, sharer)

    @property
    def nodes(self) -> dict[NodeId, Node]:
        return self._nodes

    @property
    def directory(self) -> GlobalCacheDirectory:
        if self._gcd is None:
            raise GmsError("cluster has no nodes yet")
        return self._gcd

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GmsError(f"no node {node_id}") from None

    # -- warm-cache setup ----------------------------------------------------

    def warm_fill_uids(
        self,
        uids: list[PageUid],
        age: float = 0.0,
        exclude: tuple[NodeId, ...] = (),
    ) -> int:
        """Preload ``uids`` into other nodes' global memory, round-robin.

        Models the paper's warm-cache starting condition: "all pages are
        assumed to initially reside in remote memory" (Section 4.1).
        Pages are spread over the hosts' free frames in turn, skipping
        full hosts.  UIDs already in the directory are skipped, so
        several workloads can warm-fill a common shared region without
        duplicates.  Nodes in ``exclude`` (typically the active nodes)
        receive nothing.  Returns the number of pages placed; raises
        :class:`CapacityError` if they do not fit.
        """
        hosts = [
            n for nid, n in self._nodes.items() if nid not in exclude
        ]
        if not hosts:
            raise GmsError("warm_fill_uids needs at least one host node")
        fresh = list(
            dict.fromkeys(
                u for u in uids if not self.directory.contains(u)
            )
        )
        free = sum(h.free_frames for h in hosts)
        if free < len(fresh):
            raise CapacityError(
                f"warm_fill_uids needs {len(fresh)} free frames, hosts "
                f"have {free}"
            )
        placed = 0
        cursor = 0
        unplaced: list[PageUid] = []
        for uid in fresh:
            for _ in range(len(hosts)):
                host = hosts[cursor % len(hosts)]
                cursor += 1
                if host.free_frames > 0 and not host.holds(uid):
                    host.add_global(uid, age)
                    self.directory.update(uid, host.node_id)
                    placed += 1
                    break
            else:
                # Every host with a free frame already holds this UID
                # (possible when a caller pre-seeded copies): the
                # aggregate capacity check above cannot see this, and
                # silently returning a short count would leave callers
                # believing their warm cache is complete.
                unplaced.append(uid)
        if unplaced:
            shown = ", ".join(str(u) for u in unplaced[:8])
            if len(unplaced) > 8:
                shown += f", ... ({len(unplaced) - 8} more)"
            raise CapacityError(
                f"warm_fill_uids could not place {len(unplaced)} "
                f"page(s) — every host with free frames already holds "
                f"them: {shown}"
            )
        return placed

    # -- protocol operations ---------------------------------------------

    def _msg(self, src: NodeId, dst: NodeId, count: int = 1) -> int:
        """Count ``count`` messages unless src == dst (free)."""
        if src == dst:
            return 0
        self.stats.messages += count
        return count

    def _ensure_frame(self, node: Node) -> None:
        """Make room for an incoming local page on a full node.

        Under multi-tenant interleaving another tenant's putpages can
        fill an *active* node's spare frames with hosted global pages;
        when a fault then fills a local page, GMS displaces the oldest
        hosted global page first (local pressure beats hosting).  The
        displaced page leaves through the standard :meth:`putpage`
        machinery, so forwarding, discard, and message accounting all
        apply.  No-op when a frame is free or the node hosts no global
        pages (a node genuinely full of local pages still fails
        ``add_local``'s capacity check).
        """
        if node.free_frames > 0:
            return
        victim = node.oldest_global()
        if victim is None:
            return
        self.putpage(node.node_id, victim, age=node.global_age(victim))

    def _observe_get(self, location: PageLocation) -> None:
        if self._ins is not None:
            self._ins.counter(f"gms_getpage_{location.name.lower()}")

    def getpage(
        self, requester: NodeId, uid: PageUid, now: float
    ) -> GetPageResult:
        """Fault path: locate ``uid`` and move it to ``requester``.

        On a global-memory hit the page moves into the requester's local
        memory (the caller must have freed a frame first).  On a miss the
        caller fills from disk; the directory then knows the requester
        holds the page.
        """
        self.stats.getpages += 1
        req_node = self.node(requester)
        manager = self.directory.pod.manager_of(uid)
        messages = self._msg(requester, manager)
        if not self.directory.contains(uid):
            # Directory miss: page only exists on disk.
            self.stats.disk_fills += 1
            messages += self._msg(manager, requester)
            self._ensure_frame(req_node)
            req_node.add_local(uid, now)
            self.directory.update(uid, requester)
            self._observe_get(PageLocation.DISK)
            return GetPageResult(uid, PageLocation.DISK, None, messages)
        holder_id = self.directory.lookup(uid)
        holder = self.node(holder_id)
        if holder_id == requester:
            # The requester itself hosts the page as a global page.
            holder.promote_to_local(uid, now)
            self.stats.local_global_hits += 1
            self.directory.update(uid, requester)
            self._observe_get(PageLocation.LOCAL_GLOBAL)
            return GetPageResult(
                uid, PageLocation.LOCAL_GLOBAL, requester, messages
            )
        messages += self._msg(manager, holder_id)
        if holder.holds_global(uid):
            holder.remove_global(uid)
        elif holder.holds_local(uid):
            # Shared page actively used elsewhere: we take a copy and the
            # holder keeps its local copy.  The directory keeps pointing
            # at the established holder so further sharers copy from it;
            # correctness relies on shared pages being read-only (code).
            self.stats.shared_copies += 1
            messages += self._msg(holder_id, requester)
            self._ensure_frame(req_node)
            req_node.add_local(uid, now)
            self.directory.add_sharer(uid, requester)
            self.stats.remote_hits += 1
            self._observe_get(PageLocation.REMOTE_MEMORY)
            return GetPageResult(
                uid, PageLocation.REMOTE_MEMORY, holder_id, messages
            )
        else:
            raise GmsError(
                f"directory says node {holder_id} holds {uid}, but it "
                f"does not"
            )
        messages += self._msg(holder_id, requester)
        self._ensure_frame(req_node)
        req_node.add_local(uid, now)
        self.directory.update(uid, requester)
        self.stats.remote_hits += 1
        self._observe_get(PageLocation.REMOTE_MEMORY)
        return GetPageResult(
            uid, PageLocation.REMOTE_MEMORY, holder_id, messages
        )

    def putpage(
        self,
        evicting: NodeId,
        uid: PageUid,
        age: float,
        dirty: bool = False,
    ) -> NodeId | None:
        """Eviction path: forward a page to global memory (or disk).

        Returns the receiving node, or ``None`` when the page was dropped
        or written back to disk (it was among the globally oldest, or no
        node had room).
        """
        self.stats.putpages += 1
        if self._ins is not None:
            self._ins.counter("gms_putpages")
        evictor = self.node(evicting)
        if evictor.holds_local(uid):
            evictor.drop_local(uid)
        elif evictor.holds_global(uid):
            evictor.remove_global(uid)
        else:
            raise GmsError(f"node {evicting} does not hold {uid}")
        if dirty:
            self._dirty.add(uid)

        if self.directory.contains(uid):
            holder_id = self.directory.lookup(uid)
            if holder_id != evicting and self.node(holder_id).holds(uid):
                # A sharer evicted its *copy* of a page the directory's
                # holder still has: the copy is redundant.  Forwarding
                # it would re-point the directory away from the
                # established holder (later getpages would then move or
                # discard the wrong copy, and the original holder's copy
                # would become invisible to where_is) — or crash
                # outright when the forward target already holds the
                # page.  Just drop the copy.
                self.directory.remove_sharer(uid, evicting)
                self.stats.discards += 1
                return None
            if holder_id == evicting:
                # The canonical holder is evicting a page other nodes
                # may still hold copies of: promote a surviving copy to
                # canonical instead of dropping the page to disk, so no
                # local copy is ever directory-orphaned.  The directory
                # copyset makes this O(copies) rather than a scan over
                # every node in the cluster.
                for sharer_id in self.directory.sharers(uid):
                    if self.node(sharer_id).holds(uid):
                        self.directory.update(uid, sharer_id)
                        self._msg(
                            evicting, self.directory.pod.manager_of(uid)
                        )
                        self.stats.discards += 1
                        return None

        if self._epoch.should_discard(self._nodes, age) or len(
            self._nodes
        ) < 2:
            self._to_disk(uid, evicting)
            return None

        target_id = self._epoch.choose_target(self._nodes, exclude=evicting)
        target = self.node(target_id)
        if target.free_frames <= 0:
            # Make room by pushing the target's oldest global page to disk;
            # if it hosts none, fall back to discarding the incoming page.
            victim = target.oldest_global()
            if victim is None:
                self._to_disk(uid, evicting)
                return None
            target.remove_global(victim)
            self._to_disk(victim, target_id)
        target.add_global(uid, age)
        self.directory.update(uid, target_id)
        self._msg(evicting, target_id)
        manager = self.directory.pod.manager_of(uid)
        self._msg(evicting, manager)
        return target_id

    def _to_disk(self, uid: PageUid, from_node: NodeId) -> None:
        """Drop a page from the global cache (writing back if dirty).

        Charges the same protocol messages every other path pays: a
        writeback to the page's origin node (whose disk backs it) when
        dirty, and a directory-removal notice to the page's manager when
        an entry exists.  Both are free when ``from_node`` is already
        the destination, matching ``_msg``'s self-send rule.
        """
        if uid in self._dirty:
            self.stats.disk_writebacks += 1
            self._dirty.discard(uid)
            self._msg(from_node, uid.origin)
        else:
            self.stats.discards += 1
        if self.directory.contains(uid):
            self._msg(from_node, self.directory.pod.manager_of(uid))
            self.directory.remove(uid)

    # -- introspection ---------------------------------------------------

    def total_free_frames(self) -> int:
        return sum(n.free_frames for n in self._nodes.values())

    def where_is(self, uid: PageUid) -> NodeId | None:
        """Which node currently stores ``uid`` (None = disk only)."""
        if self._gcd is None or not self.directory.contains(uid):
            return None
        return self.directory.lookup(uid)


class ActiveNode(NamedTuple):
    """One trace-running node of :func:`build_cluster`."""

    memory_pages: int
    #: The virtual pages its workload touches (repeats allowed).
    pages: np.ndarray
    #: Pages at or above this VPN are shared (see :func:`page_uid`).
    shared_from_page: int | None = None


def build_cluster(
    active: Sequence[ActiveNode],
    idle_nodes: int,
    idle_frames: int | None = None,
    seed: int = 0,
    warm: bool = True,
    instrument: "Instrument | None" = None,
) -> Cluster:
    """The GMS cluster a simulation runs against.

    Node ``i`` is ``active[i]``, sized to its local memory.  The
    ``idle_nodes`` nodes after them split ``idle_frames`` frames between
    them (default: twice the active nodes' combined footprint, a warm
    cache that fits).  With ``warm`` the active nodes' pages start in
    the idle nodes' global memory (the paper's warm cache): node by
    node, each node's distinct pages in ascending order, shared pages
    once, as many as fit; the rest fill from disk on first touch.
    """
    if not active:
        raise ConfigError("need at least one active node")
    if idle_nodes < 1:
        raise ConfigError("need at least one idle node")
    vpns = [np.unique(node.pages).tolist() for node in active]
    if idle_frames is None:
        idle_frames = 2 * sum(map(len, vpns))
    per_idle = max(1, -(-idle_frames // idle_nodes))
    cluster = Cluster(seed=seed, instrument=instrument)
    cluster.add_nodes(
        [node.memory_pages for node in active] + [per_idle] * idle_nodes
    )
    if warm:
        uids = dict.fromkeys(
            page_uid(node_id, vpn, node.shared_from_page)
            for node_id, node in enumerate(active)
            for vpn in vpns[node_id]
        )
        # Clamp at zero: a negative room would slice pages off the
        # tail instead of warm-filling none.
        room = max(
            0,
            cluster.total_free_frames()
            - sum(node.memory_pages for node in active),
        )
        cluster.warm_fill_uids(
            list(uids)[:room], exclude=tuple(range(len(active)))
        )
    return cluster
