"""Multi-workload cluster scenarios and shared pages.

Every scenario runs through :func:`run_multi_tenant`, the one
multi-workload runner.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.multinode import NodeWorkload
from repro.sim.multitenant import run_multi_tenant
from repro.trace.compress import compress_references


def trace_for(pages: list[int], name: str):
    addrs = np.repeat(np.array(pages, dtype=np.int64) * 8192, 50)
    # Touch a couple of words per page visit.
    addrs = addrs + np.tile(np.arange(50, dtype=np.int64) * 8, len(pages))
    return compress_references(addrs, name=name)


class TestBasics:
    def test_two_private_workloads(self):
        a = NodeWorkload("a", trace_for(list(range(10)), "a"),
                         memory_pages=4)
        b = NodeWorkload("b", trace_for(list(range(10)), "b"),
                         memory_pages=4)
        result = run_multi_tenant([a, b])
        assert set(result.per_tenant) == {"a", "b"}
        # Private namespaces: no sharing between identical VPNs.
        assert result.shared_copies == 0
        # Warm cache: everything served from remote memory.
        assert result.cluster_stats["disk_fills"] == 0
        for res in result.per_tenant.values():
            assert res.remote_faults == res.page_faults

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_multi_tenant([])
        trace = trace_for([0], "x")
        with pytest.raises(ConfigError):
            run_multi_tenant(
                [NodeWorkload("x", trace, 2)], idle_nodes=0
            )
        with pytest.raises(ConfigError):
            run_multi_tenant(
                [NodeWorkload("x", trace, 2), NodeWorkload("x", trace, 2)]
            )
        with pytest.raises(ConfigError):
            NodeWorkload("x", trace, memory_pages=0)


class TestSharedPages:
    def test_second_workload_copies_from_first(self):
        # Pages >= 100 are a shared library region both workloads touch.
        shared = list(range(100, 108))
        a = NodeWorkload(
            "a", trace_for(list(range(4)) + shared, "a"),
            memory_pages=16, shared_from_page=100,
        )
        b = NodeWorkload(
            "b", trace_for(list(range(4)) + shared, "b"),
            memory_pages=16, shared_from_page=100,
        )
        result = run_multi_tenant([a, b])
        # Each shared page is faulted by one workload and then by the
        # other while the first still holds it locally: the second
        # fault is served as a copy, counted as a remote hit.
        assert result.shared_copies == len(shared)
        assert result.cluster_stats["disk_fills"] == 0

    def test_shared_pages_warm_filled_once(self):
        shared = list(range(100, 110))
        a = NodeWorkload("a", trace_for(shared, "a"), memory_pages=16,
                         shared_from_page=100)
        b = NodeWorkload("b", trace_for(shared, "b"), memory_pages=16,
                         shared_from_page=100)
        result = run_multi_tenant([a, b], idle_nodes=1,
                                  idle_frames=len(shared))
        # 10 frames suffice for both workloads' warm fill: one copy each.
        assert result.cluster_stats["disk_fills"] == 0

    def test_without_shared_namespace_pages_are_private(self):
        shared = list(range(100, 108))
        a = NodeWorkload("a", trace_for(shared, "a"), memory_pages=16)
        b = NodeWorkload("b", trace_for(shared, "b"), memory_pages=16)
        result = run_multi_tenant([a, b])
        assert result.shared_copies == 0


class TestCapacityInteraction:
    def test_evictions_flow_to_global_memory_and_back(self):
        pages = list(range(12)) * 2  # revisit after eviction
        a = NodeWorkload("a", trace_for(pages, "a"), memory_pages=4)
        result = run_multi_tenant([a], idle_nodes=2)
        res = result.per_tenant["a"]
        assert res.evictions > 0
        # Refaults after eviction are still remote hits (pages went to
        # global memory, not disk).
        assert res.disk_faults == 0
        assert result.cluster_stats["putpages"] == res.evictions

    def test_total_faults_aggregates(self):
        a = NodeWorkload("a", trace_for(list(range(5)), "a"), 8)
        b = NodeWorkload("b", trace_for(list(range(7)), "b"), 8)
        result = run_multi_tenant([a, b])
        assert result.total_faults == (
            result.per_tenant["a"].page_faults
            + result.per_tenant["b"].page_faults
        )


class TestSharedEvictions:
    def test_sharer_evictions_drop_copies(self):
        """Regression: a small workload thrashing over shared pages used
        to forward its redundant copies through putpage, crashing (the
        forward target often already held the page) or re-pointing the
        directory away from the canonical holder."""
        shared = list(range(8, 16))
        a = NodeWorkload(
            "a", trace_for(shared, "a"),
            memory_pages=16, shared_from_page=8,
        )
        # b cycles over the shared region with room for only 3 pages:
        # every cycle evicts shared copies while "a" still holds them.
        b = NodeWorkload(
            "b", trace_for(shared * 4, "b"),
            memory_pages=3, shared_from_page=8,
        )
        result = run_multi_tenant([a, b])
        assert result.shared_copies > 0
        # Redundant copies are discarded, never forwarded or written
        # back: each of b's shared evictions counts a discard.
        evictions = result.per_tenant["b"].evictions
        assert evictions > 0
        assert result.cluster_stats["discards"] >= evictions
        assert result.cluster_stats["disk_writebacks"] == 0
