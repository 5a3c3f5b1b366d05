"""The benchmark's four workloads, driven through public entry points.

Each workload builds its inputs from the benchmark seed and runs
*passes*.  A pass has a cold part (what ``wall_s`` times) and a cached
part (what ``cached_wall_s`` times):

* ``zoo`` / ``memsizes`` -- the figZOO and Figure 3 grids through
  ``run_cells`` with one worker; the cached part reruns the grid against
  a flat-file ``ResultCache`` already holding every cell.
* ``tenants`` -- the figMT grid: 28 ``run_multi_tenant`` calls; the
  cached part reruns it the way the experiment does within one process,
  with the 16 solo baselines memoized, i.e. only the 12 contended calls.
* ``service`` -- ``python -m repro.service`` over HTTP: a cold kvserve
  sweep, then the same spec again, served from the sqlite store.

At seed 0 every cell is built exactly as its experiment module builds
it; seed ``S`` shifts every trace seed by ``S`` (and, for ``tenants``,
the cluster seed).  Outputs are checked every pass: a digest over every
cell's ``SimulationResult.summary()`` and distance histogram (for the
service, over the served CSV and cell table) must match across passes,
between the cold and cached parts, and, at seed 0, the pinned value.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.experiments import fig03_memsizes, fig11_multitenant, figzoo_grid
from repro.sim import multitenant, parallel
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.multinode import NodeWorkload
from repro.sim.simulator import simulate
from repro.trace.synth import apps
from tracer import GcPauses

#: Statuses a computed cell may report on the cold part.
COMPUTED = frozenset({"done", "batched"})

#: The service sweep: kvserve's default 21-cell subpage sweep.
SERVICE_APP = "kvserve"

ANNOUNCE = re.compile(r"listening on http://[\d.]+:(\d+)")


#: What :func:`probe` takes on the reference host: the 2-vCPU shared VM
#: the benchmark was built on, when nothing else loaded it.
REFERENCE_PROBE_S = 0.0006


def _probe_loop() -> float:
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        table[i & 511] = i
        acc += table.get((i * 7) & 511, 0) & 3
    return time.perf_counter() - started


def probe() -> float:
    """How long a fixed pure-Python loop takes on this host right now:
    the median of five runs, so one interrupted run does not count."""
    return statistics.median(_probe_loop() for _ in range(5))


class HostClock:
    """Host seconds, scaled to the reference host's speed.

    Other tenants of a shared machine slow this process for seconds to
    minutes at a time, invisibly to it (CPU time grows with wall time).
    The clock splits a timed part into segments at each :meth:`lap` and
    probes the host between segments, while nothing else runs; each
    segment is scaled by :data:`REFERENCE_PROBE_S` over the mean of the
    probes on either side of it.  Probe time is excluded.
    """

    def __init__(self) -> None:
        self._speed = probe()
        self._mark = time.perf_counter()
        #: Unscaled and scaled seconds of the segments so far.
        self.raw = 0.0
        self.scaled = 0.0

    def lap(self) -> float:
        """End the current segment; return the factor that scaled it."""
        segment = time.perf_counter() - self._mark
        speed = probe()
        factor = 2 * REFERENCE_PROBE_S / (self._speed + speed)
        self.raw += segment
        self.scaled += segment * factor
        self._speed = speed
        self._mark = time.perf_counter()
        return factor


#: Seconds between :class:`HostSampler` probes.
SAMPLE_EVERY_S = 0.1


class HostSampler:
    """The host's speed while a part runs in another process.

    The service computes in a child process pinned to this process's
    CPU, so there is no gap between its cells to probe in.  Instead a
    thread runs one probe loop every :data:`SAMPLE_EVERY_S` while the
    context is open (the first at once), preempting the child for half
    a millisecond each time.  :meth:`factor` scales an interval of the
    part by the mean of the samples taken during it: the host's average
    speed through the interval rather than its speed at the part's ends.
    """

    def __init__(self) -> None:
        #: (``perf_counter`` at the sample's end, probe seconds).
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        seconds = _probe_loop()
        self.samples.append((time.perf_counter(), seconds))

    def _run(self) -> None:
        self._sample()
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample()

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The scale factor for ``[start, end]`` (``perf_counter`` times).

        Uses the samples within half a sampling interval of it, or the
        nearest sample when none is.
        """
        margin = SAMPLE_EVERY_S / 2
        inside = [
            s for t, s in self.samples if start - margin <= t <= end + margin
        ]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - middle))[1]]
        return REFERENCE_PROBE_S / statistics.mean(inside)


@dataclass
class Pass:
    """What one pass measured and checked.

    Times are host seconds scaled to the reference host speed (see
    :class:`HostClock` and :class:`HostSampler`); ``raw_*`` are the
    unscaled host seconds.
    """

    #: Seconds of each computed cold cell, in completion order.
    cells: list[float]
    wall_s: float
    cached_wall_s: float
    raw_wall_s: float
    raw_cached_wall_s: float
    #: References simulated by the cold part.
    refs: int
    digest: str
    attempted: int
    failed: int
    statuses: Counter = field(default_factory=Counter)
    #: Exact simulated statistics of the cold part.
    sim: dict[str, float] = field(default_factory=dict)
    #: Server boot seconds (service only; its set-up).
    boot_s: float | None = None
    #: Seconds the cold job waited in the service queue (traced only).
    queue_s: float = 0.0


def _timed_cells(
    run: Any, tracer: Any, cells: list[float] | None = None
) -> tuple[Any, HostClock]:
    """``run(progress)`` with a clock segment per ``CellEvent``.

    Each computed cell's ``elapsed_s`` less the collector pauses of its
    segment (see :func:`cell_seconds`), scaled by its segment's factor,
    is appended to ``cells``.
    """
    clock = HostClock()
    pauses = GcPauses()
    events: list[parallel.CellEvent] = []
    counted = 0.0

    def progress(event: parallel.CellEvent) -> None:
        nonlocal counted
        events.append(event)
        # Inside run_cells: keep the probe out of its self time.
        with _span(tracer, "bench.probe"):
            factor = clock.lap()
        paused, counted = pauses.seconds - counted, pauses.seconds
        if cells is not None and event.status in COMPUTED:
            cells.append(cell_seconds(event.elapsed_s, paused) * factor)

    with pauses:
        out = run(progress)
    clock.lap()
    return (out, events), clock


def cell_seconds(elapsed_s: float, paused_s: float) -> float:
    """A cell's time without the garbage collector's pauses.

    A full collection scans every object alive, most of them results of
    earlier cells, and lands on whichever cell tips its threshold: a
    pause of up to a quarter of a second, charged to a cell by where it
    fell rather than by what the cell did.  The cell percentiles leave
    the pauses out; ``wall_s`` keeps them.
    """
    return max(0.0, elapsed_s - paused_s)


def result_digest(results: list[Any]) -> str:
    """SHA-256 over each result's summary and distance histogram."""
    digest = hashlib.sha256()
    for result in results:
        payload = [result.summary(), sorted(result.distance_histogram.items())]
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def sim_stats(results: list[Any]) -> dict[str, float]:
    """Exact simulated link totals over ``results``."""
    stats = Counter()
    for result in results:
        link = result.link_stats
        stats["queueing_delay_ms"] += link.get("queueing_delay_ms", 0.0)
        stats["background_transfers"] += link.get("background_transfers", 0)
        stats["cancelled_transfers"] += result.cancelled_transfers
    return dict(stats)


def _span(tracer: Any, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def settle() -> None:
    """Collect garbage before a timed part.

    Every timed part then starts from the same heap, so the program's
    own collections fall on the same cells in every pass instead of
    wherever garbage left by earlier work tips them.  The benchmark
    also drops its references to one part's results before the next
    part, so that those collections do not scan them.
    """
    gc.collect()


# -- zoo / memsizes -------------------------------------------------------


def grid_config(trace: Any, spec: dict[str, Any]) -> SimulationConfig:
    """A grid spec's config, exactly as ``experiments.common`` builds it."""
    scheme = spec.get("scheme", "eager")
    scheme_kwargs = {}
    if scheme == "pipelined":
        scheme_kwargs = {
            "pipeline_count": 2,
            "segment_subpages": 1,
            "interrupt_ms": 0.0,
            "double_initial": False,
        }
    return SimulationConfig(
        memory_pages=memory_pages_for(trace, spec["memory_fraction"]),
        scheme=scheme,
        scheme_kwargs=scheme_kwargs,
        subpage_bytes=spec.get("subpage_bytes", 1024),
        backing=spec.get("backing", "remote"),
    )


class GridWorkload:
    """A figure grid through ``run_cells`` (serial, one worker)."""

    def __init__(
        self, name: str, specs: list[dict], seed: int, scratch: Path,
        diagnostic: list[dict],
    ) -> None:
        self.name = name
        self.specs = specs
        self.seed = seed
        self.scratch = scratch
        self.diagnostic_specs = diagnostic
        self.traces: dict[str, Any] = {}
        self.jobs: list[parallel.SweepJob] = []
        self.cache = parallel.ResultCache(scratch / "result-cache")
        self._cache_filled = False

    def setup(self) -> None:
        """Build every trace and the columns the grid's cells read."""
        sizes: dict[str, set[int]] = {}
        for spec in self.specs:
            sizes.setdefault(spec["app"], set()).add(
                spec.get("subpage_bytes", 1024)
            )
        self.traces = {
            app: apps.build_app_trace(app, seed=self.seed) for app in sizes
        }
        for app, trace in self.traces.items():
            for size in sorted(sizes[app]):
                trace.columns(size)
        self.jobs = [
            parallel.SweepJob(
                key=index,
                trace=self.traces[spec["app"]],
                config=grid_config(self.traces[spec["app"]], spec),
            )
            for index, spec in enumerate(self.specs)
        ]

    def results(self) -> list[Any]:
        """One cold pass's results, in job order (no timing)."""
        out = parallel.run_cells(self.jobs, workers=1)
        return [out[job.key] for job in self.jobs]

    def run_pass(self, tracer: Any = None) -> Pass:
        cells: list[float] = []
        with _span(tracer, "bench.cold"):
            (out, events), cold = _timed_cells(
                lambda progress: parallel.run_cells(
                    self.jobs, workers=1, progress=progress
                ),
                tracer, cells,
            )
        results = [out[job.key] for job in self.jobs]
        if not self._cache_filled:
            for job, result in zip(self.jobs, results):
                self.cache.put(self.cache.key_for(job), result)
            self._cache_filled = True
        digest = result_digest(results)
        refs = sum(r.num_references for r in results)
        sim = sim_stats(results)
        del out, results
        settle()
        with _span(tracer, "bench.cached"):
            (cached, cached_events), warm = _timed_cells(
                lambda progress: parallel.run_cells(
                    self.jobs, workers=1, cache=self.cache,
                    progress=progress,
                ),
                tracer,
            )
        cold_statuses = [e.status for e in events]
        cached_statuses = [e.status for e in cached_events]
        failed = (
            _failed(cold_statuses, COMPUTED)
            + _failed(cached_statuses, {"cached"})
        )
        if result_digest([cached[job.key] for job in self.jobs]) != digest:
            failed += len(self.jobs)
        return Pass(
            cells=cells,
            wall_s=cold.scaled,
            cached_wall_s=warm.scaled,
            raw_wall_s=cold.raw,
            raw_cached_wall_s=warm.raw,
            refs=refs,
            digest=digest,
            attempted=2 * len(self.jobs),
            failed=failed,
            statuses=Counter(cold_statuses + cached_statuses),
            sim=sim,
        )

    def engine_diagnostic(self) -> dict[str, float]:
        return engine_diagnostic(self.traces, self.diagnostic_specs)

    def close(self) -> None:
        self.traces = {}
        self.jobs = []


def _failed(statuses: list[str], expected: set | frozenset) -> int:
    """Events whose status is not ``expected``: failed or retried cells,
    cache misses where every cell should hit, and ``cache-error``s."""
    return sum(status not in expected for status in statuses)


class ArmsDiffer(Exception):
    """The engine diagnostic's arms gave different results."""


def engine_diagnostic(
    traces: dict[str, Any], specs: list[dict]
) -> dict[str, float]:
    """Rerun ``specs`` with distance tracking off through every engine.

    Arms: the reference loop, the fast engine, and the fused multi-cell
    pass (``simulate_cells_timed`` with a ``FusedProfile``).  Returns
    each bulk engine's speed as a multiple of the reference loop's and
    the fused pass's bulk-span share of its drive time; an arm the
    program no longer offers reads 0.  Raises :class:`ArmsDiffer` when
    the arms' results differ.
    """
    configs = [
        (traces[spec["app"]], grid_config(traces[spec["app"]], spec))
        for spec in specs
    ]
    out = {
        "engine.fast_vs_reference": 0.0,
        "engine.fused_vs_reference": 0.0,
        "engine.fused_bulk_share": 0.0,
    }
    try:
        arms = {
            engine: [
                (trace, dataclasses.replace(
                    config, track_distances=False, engine=engine))
                for trace, config in configs
            ]
            for engine in ("reference", "fast")
        }
        for _, config in arms["reference"]:
            config.validate()
    except (TypeError, ConfigError):
        return out
    timings: dict[str, float] = {}
    results: dict[str, list] = {}
    for engine, cells in arms.items():
        started = time.perf_counter()
        results[engine] = [simulate(trace, config) for trace, config in cells]
        timings[engine] = time.perf_counter() - started
    if results["fast"] != results["reference"]:
        raise ArmsDiffer("fast != reference")
    out["engine.fast_vs_reference"] = timings["reference"] / timings["fast"]
    try:
        from repro.sim.batch import FusedProfile, simulate_cells_timed
    except ImportError:
        return out
    profile = FusedProfile()
    by_trace: dict[int, list[int]] = {}
    for index, (trace, _) in enumerate(arms["fast"]):
        by_trace.setdefault(id(trace), []).append(index)
    fused: list[Any] = [None] * len(configs)
    started = time.perf_counter()
    for indices in by_trace.values():
        trace = arms["fast"][indices[0]][0]
        pairs = simulate_cells_timed(
            trace, [arms["fast"][i][1] for i in indices], profile=profile
        )
        for i, (result, _) in zip(indices, pairs):
            fused[i] = result
    fused_s = time.perf_counter() - started
    if fused != results["reference"]:
        raise ArmsDiffer("fused != reference")
    out["engine.fused_vs_reference"] = timings["reference"] / fused_s
    drive = profile.bulk_s + profile.scalar_s
    out["engine.fused_bulk_share"] = profile.bulk_s / drive if drive else 0.0
    return out


def zoo(seed: int, scratch: Path, quick: bool) -> GridWorkload:
    specs = figzoo_grid.grid_specs()
    classics = set(apps.classic_app_names())
    if quick:
        specs = [s for s in specs if s["app"] in ("gdb", "websess")]
    # The fig09 cells: classics at 1/2-mem, fullpage/eager/pipelined @1K.
    fig09 = [
        s for s in specs
        if s["app"] in classics and s["subpage_bytes"] in (8192, 1024)
    ]
    return GridWorkload("zoo", specs, seed, scratch, fig09)


def memsizes(seed: int, scratch: Path, quick: bool) -> GridWorkload:
    specs = fig03_memsizes.grid_specs()
    if quick:
        specs = [s for s in specs if s["memory_fraction"] == 1.0]
    return GridWorkload("memsizes", specs, seed, scratch, specs)


# -- tenants ----------------------------------------------------------------


class TenantsWorkload:
    """The figMT grid: interleaved gdb tenants on one shared cluster."""

    name = "tenants"

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        counts = fig11_multitenant.TENANT_COUNTS
        self.tenant_counts = counts[:1] if quick else counts
        self.traces: list[Any] = []

    def setup(self) -> None:
        self.traces = [
            apps.build_app_trace(
                "gdb", seed=self.seed + index,
                scale=fig11_multitenant.TRACE_SCALE,
            )
            for index in range(max(self.tenant_counts))
        ]
        for trace in self.traces:
            for size in fig11_multitenant.SUBPAGE_SIZES:
                trace.columns(size)

    def _workload(self, index: int, scheme: str, size: int) -> NodeWorkload:
        trace = self.traces[index]
        return NodeWorkload(
            name=f"t{index}",
            trace=trace,
            memory_pages=max(4, trace.footprint_pages() // 2),
            scheme=scheme,
            subpage_bytes=size,
        )

    def calls(self) -> list[tuple[bool, list[NodeWorkload]]]:
        """The grid's ``run_multi_tenant`` calls, in the experiment's order.

        Each is ``(solo, workloads)``.  Each contended cell is followed
        by the solo baselines it needs that no earlier cell computed
        (the experiment memoizes them).
        """
        calls, solo_done = [], set()
        for tenants in self.tenant_counts:
            for scheme in fig11_multitenant.SCHEMES:
                for size in fig11_multitenant.SUBPAGE_SIZES:
                    calls.append((False, [
                        self._workload(i, scheme, size)
                        for i in range(tenants)
                    ]))
                    for i in range(tenants):
                        if (i, scheme, size) not in solo_done:
                            solo_done.add((i, scheme, size))
                            calls.append(
                                (True, [self._workload(i, scheme, size)])
                            )
        return calls

    def _call(self, workloads: list[NodeWorkload]) -> Any:
        return multitenant.run_multi_tenant(
            workloads, idle_nodes=fig11_multitenant.IDLE_NODES,
            seed=self.seed,
        )

    def run_pass(self, tracer: Any = None) -> Pass:
        calls = self.calls()
        contended = [w for solo, w in calls if not solo]
        results: list[Any] = []
        again: list[Any] = []
        cells: list[float] = []
        with _span(tracer, "bench.cold"), GcPauses() as pauses:
            cold = HostClock()
            for index, (_, workloads) in enumerate(calls):
                with tracer.cell(index) if tracer else nullcontext():
                    paused = pauses.seconds
                    began = time.perf_counter()
                    results.append(self._call(workloads))
                    elapsed = time.perf_counter() - began
                    paused = pauses.seconds - paused
                cells.append(cell_seconds(elapsed, paused) * cold.lap())
        digest = tenant_digest(results)
        contended_digest = tenant_digest([
            r for (solo, _), r in zip(calls, results) if not solo
        ])
        per_tenant = [r for mt in results for r in mt.per_tenant.values()]
        refs = sum(r.num_references for r in per_tenant)
        sim = sim_stats(per_tenant)
        sim["getpages"] = sum(mt.cluster_stats["getpages"] for mt in results)
        sim["global_hits"] = sum(
            mt.cluster_stats["remote_hits"]
            + mt.cluster_stats["local_global_hits"]
            for mt in results
        )
        del results, per_tenant
        settle()
        with _span(tracer, "bench.cached"):
            warm = HostClock()
            for workloads in contended:
                again.append(self._call(workloads))
                warm.lap()
        failed = 0
        if tenant_digest(again) != contended_digest:
            failed = len(contended)
        return Pass(
            cells=cells,
            wall_s=cold.scaled,
            cached_wall_s=warm.scaled,
            raw_wall_s=cold.raw,
            raw_cached_wall_s=warm.raw,
            refs=refs,
            digest=digest,
            attempted=len(calls) + len(contended),
            failed=failed,
            sim=sim,
        )

    def close(self) -> None:
        self.traces = []


def tenant_digest(results: list[Any]) -> str:
    digest = hashlib.sha256()
    for mt in results:
        digest.update(result_digest(list(mt.per_tenant.values())).encode())
        digest.update(json.dumps(
            [mt.cluster_stats, mt.cross_stats], sort_keys=True
        ).encode())
    return digest.hexdigest()


# -- service ----------------------------------------------------------------


def _request(
    port: int, method: str, path: str, payload: Any = None
) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _events(port: int, job_id: str) -> tuple[int, list[dict[str, Any]]]:
    """A job's SSE stream, read as it arrives, until the server ends it.

    Each event gets ``"arrived"``: the ``perf_counter`` time its frame
    was read, which for a cell is when it finished.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/sweeps/{job_id}/events")
        response = conn.getresponse()
        events = []
        for line in response:
            if line.startswith(b"data: "):
                event = json.loads(line[len(b"data: "):])
                event["arrived"] = time.perf_counter()
                events.append(event)
        return response.status, events
    finally:
        conn.close()


class _SubprocessServer:
    """``python -m repro.service`` in a child process."""

    def __init__(self, root: Path, store: Path) -> None:
        self.root = root
        self.store = store
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def boot(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--workers", "1", "--store", str(self.store)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
        )
        announce = self.proc.stdout.readline()
        self.proc.stdout.close()
        match = ANNOUNCE.search(announce)
        if match is None:
            raise RuntimeError(f"service did not announce: {announce!r}")
        self.port = int(match.group(1))

    def queue_s(self, job_id: str) -> float:
        return 0.0

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class _InProcessServer:
    """The service on a thread of this process (for the traced run)."""

    def __init__(self, root: Path, store: Path) -> None:
        from repro.service.jobs import JobManager
        from repro.service.server import ServiceServer
        from repro.store import SqliteResultStore

        self.loop = asyncio.new_event_loop()
        self.manager = JobManager(store=SqliteResultStore(store), workers=1)
        self.server = ServiceServer(self.manager, port=0)
        self.thread = threading.Thread(target=self.loop.run_forever)
        self.port = 0

    def _call(self, coro) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    def boot(self) -> None:
        self.thread.start()
        self._call(self.server.start())
        self.port = self.server.port

    def queue_s(self, job_id: str) -> float:
        job = self.manager.jobs[job_id]
        return job.started_at - job.created_at

    def close(self) -> None:
        try:
            self._call(self.server.close())
            self._call(self.loop.shutdown_default_executor())
            self.manager.close()
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            self.loop.close()


@dataclass
class _Submission:
    wall_s: float
    job_id: str
    #: The job's cell events (completions and ``cache-error``s).
    cells: list[dict[str, Any]]
    csv: bytes
    #: Non-2xx responses plus a missing terminal ``done`` frame.
    failed: int


class ServiceWorkload:
    """One client, closed loop: cold sweep, then the same spec again."""

    name = "service"
    #: Set-up is the server boot, which every pass times itself.
    setup_in_pass = True

    def __init__(self, seed: int, scratch: Path, root: Path, quick: bool):
        self.seed = seed
        self.scratch = scratch
        self.root = root
        self.spec: dict[str, Any] = {
            "app": SERVICE_APP, "seed": seed, "batch": True,
        }
        if quick:
            self.spec.update(
                subpage_sizes=[1024], memory_fractions={"1/2-mem": 0.5}
            )
        # References one cell simulates (every cell walks the whole trace).
        self.cell_refs = apps.build_app_trace(
            SERVICE_APP, seed=seed
        ).num_references

    def setup(self) -> None:
        """Nothing to prebuild: each job builds its own trace."""

    def _submit(self, port: int) -> _Submission:
        failed = 0
        started = time.perf_counter()
        status, body = _request(port, "POST", "/sweeps", self.spec)
        if status != 201:
            raise RuntimeError(f"submit returned {status}: {body!r}")
        job_id = json.loads(body)["id"]
        status, events = _events(port, job_id)
        failed += status != 200
        status, csv = _request(port, "GET", f"/sweeps/{job_id}/csv")
        wall = time.perf_counter() - started
        failed += status != 200
        if not events or events[-1]["type"] != "done":
            failed += 1
        return _Submission(
            wall_s=wall,
            job_id=job_id,
            cells=[e for e in events if e["type"] == "cell"],
            csv=csv,
            failed=failed,
        )

    def run_pass(self, tracer: Any = None) -> Pass:
        tmp = Path(tempfile.mkdtemp(prefix="service-", dir=self.scratch))
        store = tmp / "results.sqlite"
        server = (
            _SubprocessServer(self.root, store) if tracer is None
            else _InProcessServer(self.root, store)
        )
        try:
            with _span(tracer, "bench.boot"), HostSampler() as booting:
                started = time.perf_counter()
                server.boot()
                boot = time.perf_counter() - started
            with _span(tracer, "bench.cold"), HostSampler() as computing:
                cold = self._submit(server.port)
            with _span(tracer, "bench.cached"), HostSampler() as serving:
                cached = self._submit(server.port)
            status, table = _request(
                server.port, "GET", f"/sweeps/{cold.job_id}/cells"
            )
            queue = server.queue_s(cold.job_id)
        finally:
            server.close()
            shutil.rmtree(tmp, ignore_errors=True)
        cold_statuses = [e["status"] for e in cold.cells]
        cached_statuses = [e["status"] for e in cached.cells]
        failed = cold.failed + cached.failed + (status != 200)
        failed += _failed(cold_statuses, COMPUTED)
        failed += _failed(cached_statuses, {"cached"})
        computed = [e for e in cold.cells if e["status"] in COMPUTED]
        if cached.csv != cold.csv:
            failed += len(computed)
        return Pass(
            cells=[
                e["elapsed_s"] * computing.factor(
                    e["arrived"] - e["elapsed_s"], e["arrived"]
                )
                for e in computed
            ],
            wall_s=cold.wall_s * computing.factor(),
            cached_wall_s=cached.wall_s * serving.factor(),
            raw_wall_s=cold.wall_s,
            raw_cached_wall_s=cached.wall_s,
            refs=self.cell_refs * len(computed),
            digest=hashlib.sha256(cold.csv + table).hexdigest(),
            attempted=len(cold.cells) + len(cached.cells),
            failed=failed,
            statuses=Counter(cold_statuses + cached_statuses),
            boot_s=boot * booting.factor(),
            queue_s=queue,
        )

    def close(self) -> None:
        pass


WORKLOADS = ("zoo", "memsizes", "tenants", "service")


def make(name: str, seed: int, scratch: Path, root: Path, quick: bool):
    if name == "zoo":
        return zoo(seed, scratch, quick)
    if name == "memsizes":
        return memsizes(seed, scratch, quick)
    if name == "tenants":
        return TenantsWorkload(seed, quick)
    if name == "service":
        return ServiceWorkload(seed, scratch, root, quick)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
