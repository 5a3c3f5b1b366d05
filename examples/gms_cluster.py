#!/usr/bin/env python3
"""Drive the GMS cluster substrate directly, then run a workload on it.

Part 1 exercises the protocol by hand: a busy node and two idle nodes,
warm-filled global memory, getpage/putpage traffic, and the epoch-based
replacement choosing putpage targets.

Part 2 runs the gdb workload through the simulator with
``backing="cluster"``, so every fault travels the full directory ->
holder -> requester path instead of the idealized warm-remote shortcut.

Run:  python examples/gms_cluster.py
"""

from repro import SimulationConfig, build_app_trace, memory_pages_for, simulate
from repro.analysis.report import format_table
from repro.gms.cluster import Cluster
from repro.gms.ids import PageUid


def drive_protocol() -> None:
    print("== GMS protocol walkthrough ==")
    cluster = Cluster(seed=7)
    busy = cluster.add_node(capacity=8)
    cluster.add_node(capacity=32)
    cluster.add_node(capacity=32)

    placed = cluster.warm_fill_uids(
        [PageUid(busy.node_id, vpn) for vpn in range(24)],
        exclude=(busy.node_id,),
    )
    print(f"warm-filled {placed} pages into idle nodes' global memory")

    # Fault in 8 pages (fills local memory), then 4 more with evictions.
    clock = 0.0
    for vpn in range(8):
        cluster.getpage(busy.node_id, PageUid(busy.node_id, vpn), clock)
        clock += 1.0
    for vpn in range(8, 12):
        victim = PageUid(busy.node_id, vpn - 8)
        cluster.putpage(busy.node_id, victim, age=clock, dirty=(vpn % 2 == 0))
        cluster.getpage(busy.node_id, PageUid(busy.node_id, vpn), clock)
        clock += 1.0

    stats = cluster.stats
    rows = [
        ("getpages", stats.getpages),
        ("  remote hits", stats.remote_hits),
        ("  disk fills", stats.disk_fills),
        ("putpages", stats.putpages),
        ("protocol messages", stats.messages),
        ("global hit ratio", f"{stats.global_hit_ratio:.2f}"),
    ]
    print(format_table(["operation", "count"], rows))
    per_node = [
        (f"node {node_id}", node.local_count, node.global_count,
         node.free_frames)
        for node_id, node in cluster.nodes.items()
    ]
    print()
    print(format_table(["node", "local", "global", "free"], per_node))


def run_workload_on_cluster() -> None:
    print("\n== gdb on a 4-node cluster ==")
    trace = build_app_trace("gdb")
    config = SimulationConfig(
        memory_pages=memory_pages_for(trace, 0.5),
        scheme="eager",
        subpage_bytes=1024,
        backing="cluster",
        cluster_nodes=4,
    )
    result = simulate(trace, config)
    print(
        f"total {result.total_ms:.1f} ms, faults {result.page_faults} "
        f"(remote {result.remote_faults}, disk {result.disk_faults})"
    )
    rows = [(k, round(v, 2)) for k, v in result.cluster_stats.items()]
    print(format_table(["cluster stat", "value"], rows))


if __name__ == "__main__":
    drive_protocol()
    run_workload_on_cluster()
