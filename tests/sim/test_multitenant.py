"""Interleaved multi-tenant scheduling against one shared cluster."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gms.cluster import ActiveNode, build_cluster
from repro.net.congestion import CrossTraffic
from repro.sim.config import SimulationConfig
from repro.sim.multinode import NodeWorkload, workload_config
from repro.sim.multitenant import MultiTenantResult, run_multi_tenant
from repro.sim.simulator import Simulator, simulate
from repro.trace.compress import compress_references


def trace_for(pages: list[int], name: str):
    addrs = np.repeat(np.array(pages, dtype=np.int64) * 8192, 50)
    addrs = addrs + np.tile(np.arange(50, dtype=np.int64) * 8, len(pages))
    return compress_references(addrs, name=name)


def busy_workload(name: str, scheme: str = "eager",
                  subpage_bytes: int = 1024) -> NodeWorkload:
    # Revisit after eviction: memory holds 4 of 12 pages, two passes.
    pages = list(range(12)) * 2
    return NodeWorkload(name, trace_for(pages, name), memory_pages=4,
                        scheme=scheme, subpage_bytes=subpage_bytes)


class TestOneTenantAnchor:
    """One-tenant interleaved must be *bit-identical* to a plain,
    sequential simulation.

    ``run_multi_tenant`` with a single workload and ``idle_nodes`` idle
    nodes must equal ``simulate`` of the same configuration with
    ``cluster_nodes = 1 + idle_nodes``: the same cluster builder, the
    same drive loop, and an inert cross-traffic fabric.  Any drift here
    means the interleaved scheduler changed single-tenant semantics.
    """

    @pytest.mark.parametrize("scheme", ["eager", "pipelined"])
    @pytest.mark.parametrize("subpage_bytes", [4096, 1024])
    def test_bit_identical_to_sequential(self, scheme, subpage_bytes):
        workload = busy_workload("a", scheme, subpage_bytes)
        idle_nodes = 2
        plain = simulate(
            workload.trace,
            workload_config(workload, 0).with_overrides(
                cluster_nodes=1 + idle_nodes
            ),
        )
        interleaved = run_multi_tenant([workload], idle_nodes=idle_nodes)
        tenant = interleaved.per_tenant["a"]
        assert plain == tenant
        assert plain.summary() == tenant.summary()
        assert plain.cluster_stats == interleaved.cluster_stats

    def test_single_link_fabric_is_inert(self):
        result = run_multi_tenant([busy_workload("a")])
        stats = result.cross_stats["a"]
        assert stats["cross_preempts"] == 0
        assert stats["cross_occupies"] == 0
        assert stats["cross_queueing_delay_ms"] == 0.0
        assert result.injected_ms == {}


class TestInterleaving:
    def test_two_tenants_complete(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        assert set(result.per_tenant) == {"a", "b"}
        for res in result.per_tenant.values():
            assert res.page_faults > 0
            assert res.total_ms > 0
        assert result.total_faults == sum(
            r.page_faults for r in result.per_tenant.values()
        )

    def test_cluster_sees_both_tenants(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        assert result.cluster_stats["getpages"] == result.total_faults

    def test_cross_traffic_attributed(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        # Each tenant's demand transfers preempt the other's link.
        for name in ("a", "b"):
            assert result.cross_stats[name]["cross_preempts"] > 0
        assert set(result.injected_ms) == {"a", "b"}
        assert all(v > 0 for v in result.injected_ms.values())

    def test_cross_traffic_can_be_disabled(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")],
            cross_traffic=False,
        )
        assert result.cross_stats == {}
        assert result.injected_ms == {}

    def test_contention_slows_pipelined_tenants(self):
        """The headline effect: with cross-traffic the same two tenants
        take at least as long as without it."""
        workloads = [
            busy_workload("a", "pipelined"),
            busy_workload("b", "pipelined"),
        ]
        coupled = run_multi_tenant(workloads)
        isolated = run_multi_tenant(workloads, cross_traffic=False)
        for name in ("a", "b"):
            assert (
                coupled.per_tenant[name].total_ms
                >= isolated.per_tenant[name].total_ms
            )

    def test_latency_report_integration(self):
        result = run_multi_tenant(
            [busy_workload("a"), busy_workload("b")]
        )
        solo = {
            name: run_multi_tenant([busy_workload(name)])
            .per_tenant[name].total_ms
            for name in ("a", "b")
        }
        report = result.latency_report(baselines=solo)
        assert set(report.tenants) == {"a", "b"}
        assert report.fairness() >= 1.0
        for tenant in report.tenants.values():
            assert tenant.slowdown is not None
            assert tenant.slowdown >= 1.0
            assert tenant.p99_ms >= tenant.p50_ms


def run_multi_tenant_per_run(
    workloads: list[NodeWorkload],
    cross_traffic: bool = True,
) -> tuple[MultiTenantResult, int]:
    """The one-run-per-pop scheduler: the oracle for run_multi_tenant.

    Every heap pop executes exactly one compressed run
    (``until=-inf``) and pushes the tenant back, so the global order is
    ``(clock, tenant index)`` by construction.  Also returns how many
    pops found another tenant at exactly the same clock.
    """
    cluster = build_cluster(
        [
            ActiveNode(w.memory_pages, w.trace.pages, w.shared_from_page)
            for w in workloads
        ],
        idle_nodes=2,
    )
    fabric = CrossTraffic() if cross_traffic else None
    tenants = []
    for node_id, workload in enumerate(workloads):
        simulator = Simulator(
            workload_config(workload, node_id),
            cluster=cluster,
            link_fabric=fabric,
            link_label=workload.name,
        )
        tenants.append([simulator, simulator._prepare(workload.trace), -1])
    final_clock = [0.0] * len(tenants)
    ties = 0
    heap = [(0.0, i) for i in range(len(tenants))]
    heapq.heapify(heap)
    while heap:
        clock, i = heapq.heappop(heap)
        ties += bool(heap) and heap[0][0] == clock
        simulator, runs, last_page = tenants[i]
        clock, last_page = simulator._drive(
            runs, clock, last_page, -math.inf
        )
        if last_page is None:
            final_clock[i] = clock
        else:
            tenants[i][2] = last_page
            heapq.heappush(heap, (clock, i))
    result = MultiTenantResult()
    for i, workload in enumerate(workloads):
        simulator = tenants[i][0]
        result.per_tenant[workload.name] = simulator._finish(final_clock[i])
        if fabric is not None:
            result.cross_stats[workload.name] = simulator.link.cross_stats()
    result.cluster_stats = cluster.stats.as_dict()
    if fabric is not None:
        result.injected_ms = dict(fabric.injected_ms)
    return result, ties


def mixed_tenant(index: int, seed: int) -> NodeWorkload:
    """A tenant with its own trace, scheme, memory, and shared pages."""
    rng = np.random.default_rng(seed)
    visits = rng.integers(0, 32, size=400)
    starts = rng.integers(0, 120, size=400)
    blocks = (starts[:, None] + np.arange(5)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    trace = compress_references(
        addrs, rng.random(addrs.size) < 0.2, name=f"t{index}"
    )
    scheme, subpage = [
        ("eager", 1024), ("pipelined", 1024), ("lazy", 2048),
        ("fullpage", 8192),
    ][index % 4]
    return NodeWorkload(
        f"t{index}", trace, memory_pages=10 + 3 * index, scheme=scheme,
        subpage_bytes=subpage,
        shared_from_page=24 if index % 2 else None,
    )


class TestSchedulingOracle:
    """Clock-bounded slices reproduce the one-run-per-pop order."""

    @pytest.mark.parametrize("cross_traffic", [True, False])
    @pytest.mark.parametrize("tenants", [1, 2, 3, 4])
    def test_matches_per_run_scheduler(self, tenants, cross_traffic):
        workloads = [mixed_tenant(i, 100 + i) for i in range(tenants)]
        sliced = run_multi_tenant(workloads, cross_traffic=cross_traffic)
        oracle, _ = run_multi_tenant_per_run(workloads, cross_traffic)
        assert sliced == oracle

    @pytest.mark.parametrize("cross_traffic", [True, False])
    @pytest.mark.parametrize("tenants", [2, 3, 4])
    def test_identical_traces_tie_break(self, tenants, cross_traffic):
        """Identical tenants hit exact clock ties, which the
        ``nextafter`` bound must break by tenant index."""
        workloads = [busy_workload(f"w{i}") for i in range(tenants)]
        sliced = run_multi_tenant(workloads, cross_traffic=cross_traffic)
        oracle, ties = run_multi_tenant_per_run(workloads, cross_traffic)
        assert ties > 0
        assert sliced == oracle


def slice_trace():
    rng = np.random.default_rng(5)
    visits = rng.integers(0, 20, size=150)
    starts = rng.integers(0, 120, size=150)
    blocks = (starts[:, None] + np.arange(4)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    return compress_references(
        addrs, rng.random(addrs.size) < 0.3, name="slices"
    )


#: Overrides of an 8-frame config.  The drive loop carries the current
#: frame across slices, so these reach every replacement policy, disk
#: backing and a 2-frame thrash.
SLICE_CONFIGS = [
    {"scheme": "eager"},
    {"scheme": "pipelined", "tlb_entries": 4},
    {"scheme": "eager", "protection": "palcode"},
    {"scheme": "lazy", "subpage_bytes": 2048, "protection": "palcode",
     "tlb_entries": 4},
    {"scheme": "adaptive",
     "scheme_kwargs": {"predictor": "stride"}},
    {"scheme": "pipelined", "backing": "cluster"},
    {"scheme": "pipelined", "replacement": "fifo"},
    {"scheme": "eager", "replacement": "clock", "tlb_entries": 4},
    {"scheme": "lazy", "replacement": "random"},
    {"scheme": "eager", "backing": "disk"},
    {"scheme": "pipelined", "memory_pages": 2, "tlb_entries": 4},
]


class TestClockBoundedSlices:
    @settings(max_examples=120, deadline=None)
    @given(
        overrides=st.sampled_from(SLICE_CONFIGS),
        bounds=st.lists(
            st.one_of(
                st.just(-math.inf),
                st.floats(min_value=-1.0, max_value=20.0),
            ),
            max_size=40,
        ),
    )
    def test_sliced_drive_equals_one_drive(self, overrides, bounds):
        """Driving in slices ending at random clock bounds (relative to
        the slice's start; ``-inf`` = exactly one run) is ``==`` to one
        unbounded drive."""
        trace = slice_trace()
        config = SimulationConfig(**{"memory_pages": 8, **overrides})
        whole = Simulator(config).run(trace)

        simulator = Simulator(config)
        runs = simulator._prepare(trace)
        clock, last_page = 0.0, -1
        for bound in [*bounds, math.inf]:
            clock, page = simulator._drive(
                runs, clock, last_page, clock + bound
            )
            if page is None:
                break
            last_page = page
        sliced = simulator._finish(clock)
        assert sliced == whole
