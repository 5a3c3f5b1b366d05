"""The trace-driven simulator (paper Section 3.2).

The simulator consumes a run-length-compressed memory-reference trace and
models paging to remote memory (via a configurable fetch scheme) or to
disk, using memory accesses as clock events.  It produces a
:class:`~repro.sim.results.SimulationResult` with the paging behaviour the
paper reports: fault counts and kinds, execution / subpage-latency /
page-wait time components, per-fault records, overlap attribution inputs,
and the next-subpage distance histogram.
"""

from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.parallel import (
    CellEvent,
    ExecutionOptions,
    ResultCache,
    SweepJob,
    WorkerPool,
    run_cells,
)
from repro.sim.shm import SharedTraceArena, TraceHandle
from repro.sim.replacement import (
    ClockPolicy,
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.sim.multinode import NodeWorkload
from repro.sim.results import SimulationResult, TimeComponents
from repro.sim.simulator import Simulator, simulate
from repro.sim.sweep import (
    SeedStudy,
    SweepResult,
    memory_sweep_jobs,
    run_memory_sweep,
    run_seed_study,
    run_subpage_sweep,
    subpage_sweep_jobs,
)
from repro.sim.tlb import TlbModel, TlbStats

__all__ = [
    "CellEvent",
    "ClockPolicy",
    "ExecutionOptions",
    "FifoPolicy",
    "LruPolicy",
    "NodeWorkload",
    "RandomPolicy",
    "ReplacementPolicy",
    "ResultCache",
    "SeedStudy",
    "SharedTraceArena",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SweepJob",
    "SweepResult",
    "TimeComponents",
    "TlbModel",
    "TlbStats",
    "TraceHandle",
    "WorkerPool",
    "make_policy",
    "memory_pages_for",
    "memory_sweep_jobs",
    "run_cells",
    "run_memory_sweep",
    "run_seed_study",
    "run_subpage_sweep",
    "simulate",
    "subpage_sweep_jobs",
]
