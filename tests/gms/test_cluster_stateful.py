"""Model-based (stateful) testing of the GMS cluster protocol.

A hypothesis state machine drives random getpage/putpage/warm-fill
sequences against the cluster and checks the global invariants after
every step: directory consistency, capacity limits, and conservation of
page copies.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.gms.cluster import Cluster, PageLocation
from repro.gms.ids import PageUid

NUM_NODES = 3
CAPACITY = 6
VPNS = list(range(12))


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(seed=0)
        for _ in range(NUM_NODES):
            self.cluster.add_node(CAPACITY)
        self.clock = 0.0
        # Model: vpn -> "resident on node 0" (our single active node).
        self.resident: set[int] = set()

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    @rule(vpn=st.sampled_from(VPNS))
    def fault(self, vpn):
        """Fault a page into node 0, evicting if necessary."""
        if vpn in self.resident:
            return  # already resident; nothing to do
        node0 = self.cluster.node(0)
        if node0.free_frames <= 0:
            # Evict the oldest resident page first (putpage removes it).
            victim = node0.oldest_local()
            assert victim is not None
            self.cluster.putpage(0, victim, age=self._tick())
            self.resident.discard(victim.vpn)
        result = self.cluster.getpage(0, PageUid(0, vpn), self._tick())
        assert result.location in (
            PageLocation.REMOTE_MEMORY,
            PageLocation.DISK,
            PageLocation.LOCAL_GLOBAL,
        )
        self.resident.add(vpn)

    @rule(vpn=st.sampled_from(VPNS))
    def evict(self, vpn):
        if vpn not in self.resident:
            return
        self.cluster.putpage(0, PageUid(0, vpn), age=self._tick())
        self.resident.discard(vpn)

    @invariant()
    def model_agrees_with_node0(self):
        node0 = self.cluster.node(0)
        held = {uid.vpn for uid, _ in node0.page_ages()
                if node0.holds_local(uid)}
        assert held == self.resident

    @invariant()
    def no_node_exceeds_capacity(self):
        for node in self.cluster.nodes.values():
            assert node.used <= node.capacity
            assert node.free_frames >= 0

    @invariant()
    def directory_entries_point_at_holders(self):
        for vpn in VPNS:
            uid = PageUid(0, vpn)
            holder = self.cluster.where_is(uid)
            if holder is not None:
                assert self.cluster.node(holder).holds(uid)

    @invariant()
    def resident_pages_tracked_by_directory(self):
        # Every page the model thinks is resident is directory-tracked
        # at node 0 (the simulator relies on this to refault correctly).
        for vpn in self.resident:
            assert self.cluster.where_is(PageUid(0, vpn)) == 0


TestClusterStateMachine = ClusterMachine.TestCase
TestClusterStateMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


SHARED_ORIGIN = 9  # a namespace no cluster node owns
SHARED_VPNS = list(range(6))
ACTIVE_NODES = [0, 1]


class SharedClusterMachine(RuleBasedStateMachine):
    """Two active nodes faulting and evicting *shared* pages.

    Shared pages are copied, not moved: a getpage served by a node that
    holds the page locally leaves that copy in place.  The machine
    checks the directory<->residency invariants the copy protocol must
    preserve: every directory entry points at a node that really holds
    the page, and no node is left holding a copy the directory has
    forgotten (a directory-orphaned copy would be invisible to every
    future getpage).
    """

    def __init__(self):
        super().__init__()
        self.cluster = Cluster(seed=0)
        for _ in ACTIVE_NODES:
            self.cluster.add_node(4)
        self.cluster.add_node(12)  # idle global memory
        self.cluster.warm_fill_uids(
            [PageUid(SHARED_ORIGIN, v) for v in SHARED_VPNS],
            exclude=tuple(ACTIVE_NODES),
        )
        self.clock = 0.0
        self.resident = {n: set() for n in ACTIVE_NODES}

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    @rule(node=st.sampled_from(ACTIVE_NODES),
          vpn=st.sampled_from(SHARED_VPNS))
    def fault(self, node, vpn):
        if vpn in self.resident[node]:
            return
        active = self.cluster.node(node)
        if active.free_frames <= 0:
            victim = active.oldest_local()
            if victim is None:
                # The other node's putpages filled every frame with
                # hosted global pages: getpage displaces one of those.
                assert active.oldest_global() is not None
            else:
                self.cluster.putpage(node, victim, age=self._tick())
                self.resident[node].discard(victim.vpn)
        self.cluster.getpage(
            node, PageUid(SHARED_ORIGIN, vpn), self._tick()
        )
        self.resident[node].add(vpn)

    @rule(node=st.sampled_from(ACTIVE_NODES),
          vpn=st.sampled_from(SHARED_VPNS))
    def evict(self, node, vpn):
        if vpn not in self.resident[node]:
            return
        self.cluster.putpage(
            node, PageUid(SHARED_ORIGIN, vpn), age=self._tick()
        )
        self.resident[node].discard(vpn)

    @invariant()
    def model_agrees_with_active_nodes(self):
        for node_id in ACTIVE_NODES:
            node = self.cluster.node(node_id)
            held = {uid.vpn for uid, _ in node.page_ages()
                    if node.holds_local(uid)}
            assert held == self.resident[node_id]

    @invariant()
    def directory_entries_point_at_holders(self):
        for vpn in SHARED_VPNS:
            uid = PageUid(SHARED_ORIGIN, vpn)
            holder = self.cluster.where_is(uid)
            if holder is not None:
                assert self.cluster.node(holder).holds(uid)

    @invariant()
    def no_copy_is_directory_orphaned(self):
        for node in self.cluster.nodes.values():
            for uid, _ in node.page_ages():
                assert self.cluster.directory.contains(uid), (
                    f"node {node.node_id} holds {uid} but the "
                    f"directory forgot it"
                )

    @invariant()
    def no_node_exceeds_capacity(self):
        for node in self.cluster.nodes.values():
            assert node.used <= node.capacity
            assert node.free_frames >= 0


TestSharedClusterStateMachine = SharedClusterMachine.TestCase
TestSharedClusterStateMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
