"""Per-layer attribution from outside the program.

The traced run installs wrappers on the attributes each caller looks up
(``Simulator._page_fault``, ``LinkModel.demand``,
``repro.sim.parallel.simulate``, ...) and restores the originals by
identity afterwards, so the program is measured without being edited.

Every wrapped call is a span: name, start, end, parent and cell id.
Spans nest on a per-thread stack, and a span's *self time* is its
duration minus the durations of its direct children.  Fault-granularity
layers (about a million calls a pass) are aggregated into per-name
``(calls, total, self)`` sums as their spans close; only the coarse
spans (cells, prepare, drive, finish, store, service phases) are also
kept as records, for the Chrome/Perfetto trace.  Per-hit calls
(``touch``) are counted, never timed.  A ``gc.callbacks`` entry times
the interpreter's garbage collections, which pause whichever span is
open.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Kept span record: (id, name, start_s, end_s, parent_id, cell, thread).
Span = tuple[int, str, float, float, "int | None", "int | None", int]

#: Engine span names: the drive loops a cell can run under.
DRIVE_SPANS = ("engine.reference", "engine.fast", "engine.fused",
               "engine.batch")


class _Frame:
    __slots__ = ("name", "start", "child", "sid")

    def __init__(self, name: str, start: float, sid: int | None) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid


class _ThreadState:
    """One thread's span stack and aggregates (merged at the end)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[_Frame] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[Span] = []
        self.cell: int | None = None


class GcPauses:
    """Pause time of the interpreter's garbage collector.

    A ``gc.callbacks`` entry, installed while the context is open.
    Collections pause whatever span is open, so this time overlaps the
    layers' self times rather than adding to them.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.full_collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        self.full_collections += info["generation"] == 2

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)


class Tracer:
    """Span stacks per thread, self-time sums per span name.

    ``clock`` is injectable so tests can script exact timestamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.counts: Counter[str] = Counter()
        self.gc = GcPauses()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._next_id = 0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def begin(self, name: str, keep: bool = False) -> None:
        state = self._state()
        sid = self._new_id() if keep else None
        state.stack.append(_Frame(name, self.clock(), sid))

    def end(self) -> None:
        end = self.clock()
        state = self._state()
        frame = state.stack.pop()
        duration = end - frame.start
        totals = state.totals.get(frame.name)
        if totals is None:
            totals = state.totals[frame.name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame.child
        if state.stack:
            state.stack[-1].child += duration
        if frame.sid is not None:
            parent = next(
                (f.sid for f in reversed(state.stack) if f.sid is not None),
                None,
            )
            state.spans.append((
                frame.sid, frame.name, frame.start - self.origin,
                end - self.origin, parent, state.cell, state.index,
            ))

    @contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[None]:
        self.begin(name, keep)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def cell(self, cell: int, name: str = "cell") -> Iterator[None]:
        """A kept span that tags every span inside it with ``cell``."""
        state = self._state()
        outer, state.cell = state.cell, cell
        try:
            with self.span(name):
                yield
        finally:
            state.cell = outer

    def parent_name(self) -> str | None:
        stack = self._state().stack
        return stack[-1].name if stack else None

    def timed(
        self,
        func: Callable,
        name: str,
        keep: bool = False,
        note: Callable[..., None] | None = None,
    ) -> Callable:
        """``func`` wrapped in a span; ``note(*args)`` runs on entry."""
        begin, end = self.begin, self.end

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if note is not None:
                note(*args)
            begin(name, keep)
            try:
                return func(*args, **kwargs)
            finally:
                end()

        wrapper.__wrapped__ = func
        return wrapper

    def counted(self, func: Callable, name: str) -> Callable:
        """``func`` wrapped in a call counter (no timing).

        The counter is a plain read-modify-write: counted functions are
        only called from the one thread simulating at a time (cells run
        serially with one worker).
        """
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` summed over threads."""
        merged: dict[str, list] = {}
        for state in self._threads:
            for name, (calls, total, self_s) in state.totals.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return {name: tuple(v) for name, v in merged.items()}

    def spans(self) -> list[Span]:
        """Every kept span, in start order."""
        return sorted(
            (s for state in self._threads for s in state.spans),
            key=lambda s: s[2],
        )


# -- installing wrappers ------------------------------------------------------


class Patches:
    """Wrappers installed on program attributes, restorable by identity."""

    def __init__(self) -> None:
        self.applied: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        Attributes the program no longer defines are skipped, so the
        benchmark keeps running against later versions of the program;
        their layer metrics then read 0.
        """
        original = vars(owner).get(attr)
        if original is None or not callable(original):
            return
        setattr(owner, attr, make(original))
        self.applied.append((owner, attr, original))

    def restore(self) -> None:
        while self.applied:
            owner, attr, original = self.applied.pop()
            setattr(owner, attr, original)


def _module(name: str) -> Any | None:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class EngineMix:
    """Which drive loop each cell ran, counted as the drive spans open."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Counter[str] = Counter()

    def reference(self, sim: Any, *args: Any) -> None:
        parent = self.tracer.parent_name()
        if parent in DRIVE_SPANS:
            # A bulk engine handing a thrashing cell to the reference loop.
            self.counts["bailouts"] += 1
            return
        self.counts["cells_reference"] += 1
        if getattr(sim.config, "engine", "") == "fast":
            self.counts["fallback_cells"] += 1

    def fast(self, *args: Any) -> None:
        self.counts["cells_fast"] += 1

    def fused(self, cells: list, *args: Any) -> None:
        self.counts["cells_fused"] += len(cells)

    def batch(self, *args: Any) -> None:
        # drive_batch: the per-cell loop over the shared scan that the
        # fused pass replaced; counted with the fused cells.
        self.counts["cells_fused"] += 1


def install(tracer: Tracer) -> tuple[Patches, EngineMix]:
    """Wrap every layer boundary the traced run attributes time to."""
    patches = Patches()
    mix = EngineMix(tracer)

    def timed(name: str, keep: bool = False, note=None) -> Callable:
        return lambda func: tracer.timed(func, name, keep, note)

    apps = _module("repro.trace.synth.apps")
    if apps is not None:
        patches.patch(apps, "build_app_trace", timed("trace.build", True))
    compress = _module("repro.trace.compress")
    if compress is not None and hasattr(compress, "TraceColumns"):
        patches.patch(
            compress.TraceColumns, "__init__", timed("trace.columns", True)
        )

    parallel = _module("repro.sim.parallel")
    if parallel is not None:
        patches.patch(parallel, "run_cells", timed("parallel.run_cells", True))
        patches.patch(parallel, "simulate", _cell_wrapper(tracer))
    store = _module("repro.store")
    for cls in (getattr(parallel, "ResultCache", None),
                getattr(store, "SqliteResultStore", None)):
        if cls is not None:
            patches.patch(cls, "get", timed("store.get", True))
            patches.patch(cls, "put", timed("store.put", True))

    jobs = _module("repro.service.jobs")
    if jobs is not None:
        patches.patch(jobs, "run_cells", timed("parallel.run_cells", True))
        if hasattr(jobs, "JobManager"):
            patches.patch(
                jobs.JobManager, "submit", timed("service.submit", True)
            )
            patches.patch(
                jobs.JobManager, "_execute", timed("service.run", True)
            )
    server = _module("repro.service.server")
    if server is not None and hasattr(server, "ServiceServer"):
        patches.patch(server.ServiceServer, "_csv", timed("service.csv", True))

    simulator = _module("repro.sim.simulator")
    if simulator is not None:
        sim_cls = simulator.Simulator
        patches.patch(sim_cls, "_prepare", timed("simulator.prepare", True))
        patches.patch(sim_cls, "_finish", timed("simulator.finish", True))
        patches.patch(
            sim_cls, "_drive_reference",
            timed("engine.reference", True, mix.reference),
        )
        patches.patch(
            simulator, "drive_fast", timed("engine.fast", True, mix.fast)
        )
        patches.patch(sim_cls, "_page_fault", timed("fault.page_fault"))
        patches.patch(
            sim_cls, "_touch_incomplete", timed("fault.touch_incomplete")
        )
    batch = _module("repro.sim.batch")
    if batch is not None:
        patches.patch(batch, "drive_fused", timed("engine.fused", True,
                                                  mix.fused))
        patches.patch(batch, "drive_batch", timed("engine.batch", True,
                                                  mix.batch))

    schemes = _module("repro.core.schemes")
    if schemes is not None:
        for cls in _subclasses(schemes.FetchScheme):
            patches.patch(cls, "plan_fault", timed("schemes.plan"))
    latency = _module("repro.net.latency")
    if latency is not None and hasattr(latency, "CalibratedLatencyModel"):
        for attr in ("subpage_latency_ms", "rest_of_page_ms",
                     "fullpage_latency_ms", "wire_time_ms"):
            patches.patch(
                latency.CalibratedLatencyModel, attr, timed("latency")
            )
    congestion = _module("repro.net.congestion")
    if congestion is not None and hasattr(congestion, "LinkModel"):
        for attr in ("demand", "background"):
            patches.patch(congestion.LinkModel, attr, timed("link"))
    replacement = _module("repro.sim.replacement")
    if replacement is not None:
        for cls in _subclasses(replacement.ReplacementPolicy):
            patches.patch(cls, "evict", timed("replacement.evict"))
            patches.patch(
                cls, "touch",
                lambda func: tracer.counted(func, "replacement.touch"),
            )
    cluster = _module("repro.gms.cluster")
    if cluster is not None and hasattr(cluster, "Cluster"):
        for attr in ("getpage", "putpage"):
            patches.patch(cluster.Cluster, attr, timed("cluster"))
    multitenant = _module("repro.sim.multitenant")
    if multitenant is not None:
        patches.patch(
            multitenant, "run_multi_tenant", timed("multitenant", True)
        )
    return patches, mix


def _cell_wrapper(tracer: Tracer) -> Callable:
    """Wrap ``simulate(trace, config)``: one cell span per call."""

    def make(func: Callable) -> Callable:
        cells = itertools.count(1)

        def simulate(trace: Any, config: Any, *args: Any, **kwargs: Any):
            with tracer.cell(next(cells)):
                return func(trace, config, *args, **kwargs)

        simulate.__wrapped__ = func
        return simulate

    return make


# -- layer metrics ------------------------------------------------------------


def self_s(totals: dict, *names: str) -> float:
    return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)


def calls(totals: dict, *names: str) -> int:
    return sum(totals.get(name, (0, 0.0, 0.0))[0] for name in names)


def layer_metrics(
    tracer: Tracer, mix: EngineMix, traced_wall_s: float
) -> dict[str, float]:
    """The per-layer metrics the trace itself yields.

    Every ``*_s`` value is self time: the layer's spans minus the spans
    they called, so the layers and ``unattributed_s`` add up to the
    traced pass's wall time.  The benchmark's own spans (``bench.*``,
    ``cell``) are structure, not layers: their self time is what no
    layer claims.
    """
    t = tracer.totals()
    attributed = sum(
        v[2] for name, v in t.items()
        if name != "cell" and not name.startswith("bench.")
    )
    return {
        "trace.build_s": self_s(t, "trace.build"),
        "trace.columns_s": self_s(t, "trace.columns"),
        "parallel.dispatch_s": self_s(t, "parallel.run_cells"),
        "store.get_s": self_s(t, "store.get"),
        "store.put_s": self_s(t, "store.put"),
        "service.submit_s": self_s(t, "service.submit"),
        "service.run_s": self_s(t, "service.run"),
        "service.csv_s": self_s(t, "service.csv"),
        "simulator.prepare_s": self_s(t, "simulator.prepare"),
        "simulator.finish_s": self_s(t, "simulator.finish"),
        "engine.cells_reference": mix.counts["cells_reference"],
        "engine.cells_fast": mix.counts["cells_fast"],
        "engine.cells_fused": mix.counts["cells_fused"],
        "engine.fallback_cells": mix.counts["fallback_cells"],
        "engine.bailouts": mix.counts["bailouts"],
        "engine.drive_s": self_s(t, *DRIVE_SPANS),
        "fault.page_faults": calls(t, "fault.page_fault"),
        "fault.page_fault_self_s": self_s(t, "fault.page_fault"),
        "fault.touch_incomplete_s": self_s(t, "fault.touch_incomplete"),
        "schemes.plan_calls": calls(t, "schemes.plan"),
        "schemes.plan_s": self_s(t, "schemes.plan"),
        "latency.calls": calls(t, "latency"),
        "latency.s": self_s(t, "latency"),
        "link.calls": calls(t, "link"),
        "link.s": self_s(t, "link"),
        "replacement.touches": tracer.counts["replacement.touch"],
        "replacement.evict_s": self_s(t, "replacement.evict"),
        "cluster.calls": calls(t, "cluster"),
        "cluster.s": self_s(t, "cluster"),
        "multitenant.s": self_s(t, "multitenant"),
        "gc.s": tracer.gc.seconds,
        "gc.full_collections": tracer.gc.full_collections,
        "unattributed_s": traced_wall_s - attributed,
    }


def chrome_events(spans: list[Span], pid: int) -> list[dict[str, Any]]:
    """Kept spans as ``repro.obs.tracing`` normalized events.

    Times convert from host seconds to the normalized stream's
    milliseconds; each thread gets its own track, so nested spans stack
    inside their parents in Perfetto.
    """
    return [
        {
            "type": "span",
            "t_ms": start * 1e3,
            "dur_ms": (end - start) * 1e3,
            "node": pid,
            "track": f"thread {thread}",
            "label": name,
            "span": sid,
            "parent": parent,
            "cell": cell,
        }
        for sid, name, start, end, parent, cell, thread in spans
    ]
