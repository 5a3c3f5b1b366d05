"""The columnar fault log: building, freezing, equality, the record view.

A result keeps its faults as a :class:`~repro.core.fault.FaultLog` of
NumPy columns; ``fault_records`` rebuilds :class:`FaultRecord` objects
from it on demand.  These tests pin the log's contract and check the
view against records rebuilt independently from the instrument hooks.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.atomicfile import decode, encode
from repro.core.fault import (
    FAULT_KINDS,
    KIND_CODES,
    FaultKind,
    FaultLog,
    FaultRecord,
)
from repro.obs.instrument import Instrument, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator

from tests.conftest import make_trace, page_addr
from tests.sim.test_engine_equivalence import build_mixed_trace
from tests.sim.test_subpage_congestion import LazyThenRest

REMOTE = KIND_CODES[FaultKind.REMOTE]
DISK = KIND_CODES[FaultKind.DISK]
SUBPAGE = KIND_CODES[FaultKind.SUBPAGE]


def sample_log() -> FaultLog:
    """Three faults, the first with two page waits, the last with one."""
    log = FaultLog()
    first = log.append(7, 2, REMOTE, 1.0, 0.5, 1.5, 2.5, 0.25, False)
    log.append(9, 0, DISK, 3.0, 8.0, 11.0, 11.0, 0.0, True)
    last = log.append(7, 5, SUBPAGE, 12.0, 0.5, 12.5, 12.5, 0.0, False)
    log.add_page_wait(first, 1.75, 2.0)
    log.add_page_wait(first, 2.25, 2.5)
    log.add_page_wait(last, 12.75, 13.0)
    log.freeze()
    return log


def result_with(faults: FaultLog) -> SimulationResult:
    return SimulationResult(
        trace_name="t", scheme_label="sp_1024", scheme_name="eager",
        subpage_bytes=1024, page_bytes=8192, memory_pages=4,
        backing="remote", num_references=10, num_runs=5,
        event_cost_ms=1e-3, remote_faults=len(faults), faults=faults,
    )


class TestFaultLog:
    def test_append_returns_row_index(self):
        log = FaultLog()
        assert log.append(1, 0, REMOTE, 0.0, 0.5, 0.5, 1.0, 0.0, False) == 0
        assert log.append(2, 0, REMOTE, 2.0, 0.5, 2.5, 3.0, 0.0, False) == 1
        assert len(log) == 2

    def test_zero_length_wait_ignored(self):
        log = FaultLog()
        index = log.append(1, 0, REMOTE, 0.0, 0.5, 0.5, 1.0, 0.0, False)
        log.add_page_wait(index, 0.75, 0.75)
        assert log.wait_fault == []

    def test_freeze_makes_typed_arrays(self):
        log = sample_log()
        for name, dtype in FaultLog.COLUMNS.items():
            column = getattr(log, name)
            assert isinstance(column, np.ndarray), name
            assert column.dtype == dtype, name
        assert log.page.tolist() == [7, 9, 7]
        assert log.wait_fault.tolist() == [0, 0, 2]

    def test_freeze_is_idempotent(self):
        log = sample_log()
        log.freeze()
        assert log == sample_log()

    def test_equal_before_and_after_freeze(self):
        frozen = sample_log()
        building = FaultLog()
        for index, record in enumerate(frozen.records()):
            building.rows.extend((
                record.page, record.subpage, KIND_CODES[record.kind],
                record.time_ms, record.sp_latency_ms,
                record.window_start_ms, record.window_end_ms,
                record.cpu_overhead_ms, record.overlapped_another,
                record.victim, record.victim_dirty, record.cancelled,
            ))
            for start, end in record.page_wait_intervals:
                building.add_page_wait(index, start, end)
        assert building.rows is not None and len(building) == 3
        assert building == frozen

    @pytest.mark.parametrize("name", list(FaultLog.COLUMNS))
    def test_eq_detects_one_ulp_in_any_column(self, name):
        base = sample_log()
        other = sample_log()
        column = getattr(other, name).copy()
        if column.dtype == np.bool_:
            column[0] = not column[0]
        elif column.dtype.kind == "f":
            column[0] = np.nextafter(column[0], np.inf)
        else:
            column[0] += 1
        setattr(other, name, column)
        assert other != base
        assert not other == base

    def test_eq_detects_a_missing_wait(self):
        other = FaultLog.from_records(sample_log().records()[:-1])
        assert other != sample_log()

    def test_records_round_trip(self):
        log = sample_log()
        records = log.records()
        assert FaultLog.from_records(records) == log
        first = records[0]
        assert first == FaultRecord(
            page=7, subpage=2, kind=FaultKind.REMOTE, time_ms=1.0,
            sp_latency_ms=0.5, window_start_ms=1.5, window_end_ms=2.5,
            page_wait_intervals=[(1.75, 2.0), (2.25, 2.5)],
            cpu_overhead_ms=0.25, overlapped_another=False,
        )
        # Plain Python values, not NumPy scalars.
        assert type(first.page) is int
        assert type(first.time_ms) is float
        assert type(records[1].overlapped_another) is bool

    def test_records_of_one_kind(self):
        records = sample_log().records(FaultKind.SUBPAGE)
        assert [(r.page, r.subpage) for r in records] == [(7, 5)]
        assert records[0].page_wait_intervals == [(12.75, 13.0)]

    def test_waiting_ms_matches_record_arithmetic(self):
        # Inexact binary fractions, so a reordered sum would show.
        log = FaultLog()
        index = log.append(1, 0, REMOTE, 0.0, 0.1, 0.1, 9.0, 0.0, False)
        other = log.append(2, 0, REMOTE, 0.2, 0.3, 0.5, 9.0, 0.0, False)
        for start, end in [(0.7, 1.1), (1.3, 1.9), (2.3, 2.9)]:
            log.add_page_wait(index, start, end)
            log.add_page_wait(other, start + 3.1, end + 3.3)
        log.freeze()
        expected = [record.waiting_ms for record in log.records()]
        assert log.waiting_ms().tolist() == expected

    def test_stalls_merge_in_start_order(self):
        starts, ends = sample_log().stalls()
        assert list(zip(starts.tolist(), ends.tolist())) == [
            (1.0, 1.5), (1.75, 2.0), (2.25, 2.5), (3.0, 11.0),
            (12.0, 12.5), (12.75, 13.0),
        ]

    def test_result_views_read_the_log(self):
        result = result_with(sample_log())
        assert result.fault_times_ms().tolist() == [1.0, 3.0, 12.0]
        assert result.waiting_times_ms().tolist() == [1.0, 8.0, 0.75]
        assert len(result.records_of_kind(FaultKind.DISK)) == 1
        assert result.stall_intervals[0] == (1.0, 1.5)
        assert result.fault_records == sample_log().records()

    def test_record_view_is_a_copy(self):
        result = result_with(sample_log())
        result.fault_records[0].window_end_ms = 99.0
        assert result.faults.window_end_ms[0] == 2.5

    def test_result_equality_is_exact(self):
        other = sample_log()
        other.time_ms[2] = np.nextafter(other.time_ms[2], np.inf)
        assert result_with(sample_log()) == result_with(sample_log())
        assert result_with(other) != result_with(sample_log())


def _growth_on_decode(faults: int) -> int:
    """gc-tracked objects alive after decoding a ``faults``-fault result."""
    log = FaultLog()
    for i in range(faults):
        index = log.append(
            i, i % 8, i % 3, float(i), 0.5, i + 0.5, i + 0.75, 0.0, i % 2 == 0
        )
        log.add_page_wait(index, i + 0.5, i + 0.625)
    log.freeze()
    payload = encode(result_with(log))
    decode(payload)  # warm any one-time caches
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        decoded = decode(payload)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(decoded.faults) == faults
    assert decoded == result_with(log)
    return grown


def test_decoding_creates_no_per_fault_objects():
    """A decoded result costs the collector a constant number of
    objects, however many faults it carries.

    The count runs in a fresh interpreter: in the full suite, objects
    freed by other live threads would disturb ``gc.get_objects()``.
    """
    root = Path(__file__).resolve().parents[2]
    child = subprocess.run(
        [
            sys.executable, "-c",
            "from tests.sim.test_fault_log import _growth_on_decode; "
            "print(_growth_on_decode(10), _growth_on_decode(10_000))",
        ],
        cwd=root,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
        },
        capture_output=True,
        text=True,
        check=True,
    )
    small, large = map(int, child.stdout.split())
    assert large == small
    assert large < 50


class ReferenceRecorder(Instrument):
    """Rebuilds the fault records from the instrument hooks alone.

    One record per ``on_fault``, with the eviction it carries; each page
    wait is charged to the fault that brought its page in, as the
    simulator charges it.  The window
    end is the hook's value; :meth:`close_windows` applies the
    end-of-run clamp.
    """

    def __init__(self) -> None:
        self.records: list[FaultRecord] = []
        self._page_fault: dict[int, FaultRecord] = {}

    def on_fault(
        self, page, subpage, kind, time_ms, sp_latency_ms,
        window_start_ms, window_end_ms, cpu_overhead_ms,
        overlapped_another, evicted, evicted_dirty, cancelled,
        *transfers,
    ) -> None:
        record = FaultRecord(
            page, subpage, FAULT_KINDS[kind], time_ms, sp_latency_ms,
            window_start_ms, window_end_ms,
            cpu_overhead_ms=cpu_overhead_ms,
            overlapped_another=overlapped_another,
            victim=-1 if evicted is None else evicted,
            victim_dirty=evicted_dirty,
            cancelled=cancelled,
        )
        self.records.append(record)
        if record.kind is not FaultKind.SUBPAGE:
            self._page_fault[record.page] = record

    def on_stall(
        self, start_ms: float, end_ms: float, kind: str, page: int
    ) -> None:
        self._page_fault[page].add_page_wait(start_ms, end_ms)

    def close_windows(self, clock: float) -> None:
        for record in self.records:
            if record.window_end_ms > clock:
                record.window_end_ms = clock


SCHEMES = [
    ("fullpage", {}, 8192),
    ("lazy", {}, 1024),
    ("eager", {}, 1024),
    ("pipelined", {}, 1024),
    ("adaptive", {"predictor": "stride", "max_depth": 6}, 1024),
]


def _run_with_reference(config: SimulationConfig):
    trace = build_mixed_trace()
    recorder = ReferenceRecorder()
    sim = Simulator(config, instrument=recorder)
    clock, _ = sim._drive_reference(sim._prepare(trace), 0.0, -1)
    result = sim._finish(clock)
    recorder.close_windows(clock)
    return result, recorder.records


@pytest.mark.parametrize("backing", ["remote", "cluster"])
@pytest.mark.parametrize(
    "scheme,kwargs,subpage", SCHEMES, ids=[s[0] for s in SCHEMES]
)
def test_view_equals_reference_records(scheme, kwargs, subpage, backing):
    """Without congestion nothing shifts an arrival after its fault, so
    the hooks see every window end but the end-of-run clamp: the view
    must equal the rebuilt records exactly."""
    trace = build_mixed_trace()
    result, reference = _run_with_reference(SimulationConfig(
        memory_pages=memory_pages_for(trace, 0.5),
        scheme=scheme,
        scheme_kwargs=kwargs,
        subpage_bytes=subpage,
        backing=backing,
        congestion=False,
    ))
    assert result.total_faults > 0
    assert result.fault_records == reference


@pytest.mark.parametrize(
    "scheme,kwargs,subpage", SCHEMES, ids=[s[0] for s in SCHEMES]
)
def test_view_equals_reference_records_under_congestion(
    scheme, kwargs, subpage
):
    """Under congestion demand transfers push in-flight arrivals back
    after the hook ran, so the fold may move a window end later (never
    earlier); every other field must still match exactly."""
    trace = build_mixed_trace()
    result, reference = _run_with_reference(SimulationConfig(
        memory_pages=memory_pages_for(trace, 0.5),
        scheme=scheme,
        scheme_kwargs=kwargs,
        subpage_bytes=subpage,
    ))
    view = result.fault_records
    assert len(view) == len(reference) == result.total_faults
    for mine, theirs in zip(view, reference):
        assert mine.window_end_ms >= theirs.window_end_ms
        assert dataclasses.replace(mine, window_end_ms=0.0) == (
            dataclasses.replace(theirs, window_end_ms=0.0)
        )


class CountingReference(ReferenceRecorder):
    """:class:`ReferenceRecorder` that also feeds the standard
    :class:`~repro.obs.instrument.Recorder`'s metrics from the same
    hooks, so one run yields both."""

    def __init__(self) -> None:
        super().__init__()
        self.recorder = Recorder(metrics=MetricsRegistry())

    def on_fault(self, *args) -> None:
        super().on_fault(*args)
        self.recorder.on_fault(*args)

    def on_stall(self, *args) -> None:
        super().on_stall(*args)
        self.recorder.on_stall(*args)


#: Every built-in scheme (and the lazy scheme that ships the rest of a
#: page on its second fault) with a subpage size it runs at.  The
#: adaptive layer with ``switch_schemes`` is the built-in route to a
#: subpage fault that ships a follow-on.
INVARIANT_SCHEMES = [
    ("fullpage", {}, 8192),
    ("lazy", {}, 1024),
    ("eager", {}, 1024),
    ("pipelined", {}, 1024),
    ("pipelined", {"double_initial": True, "interrupt_ms": 0.068}, 512),
    ("adaptive", {"predictor": "stride", "max_depth": 6}, 1024),
    ("adaptive", {"predictor": "stride", "switch_schemes": True}, 1024),
    (LazyThenRest(), {}, 1024),
]


@st.composite
def write_heavy_traces(draw):
    """Up to 60 references over 8 pages, three in four of them writes:
    with 2-4 frames nearly every reference faults or evicts."""
    refs = draw(st.lists(
        st.tuples(
            st.integers(0, 7),
            st.integers(0, 31),
            st.sampled_from([True, True, True, False]),
        ),
        min_size=1,
        max_size=60,
    ))
    return make_trace(
        [page_addr(page, block * 256) for page, block, _ in refs],
        [write for _, _, write in refs],
    )


def _writes(*refs: tuple[int, int]):
    """A write per ``(page, block)``: the trace of a pinned draw."""
    return make_trace(
        [page_addr(page, block * 256) for page, block in refs],
        [True] * len(refs),
    )


@given(
    trace=write_heavy_traces(),
    frames=st.integers(2, 4),
    policy=st.sampled_from(["lru", "fifo", "clock", "random"]),
    backing=st.sampled_from(["remote", "disk", "cluster"]),
    scheme=st.sampled_from(INVARIANT_SCHEMES),
    congestion=st.booleans(),
)
@settings(max_examples=150, deadline=None)
# The page fault at block 28 ships no follow-on, so the subpage fault
# at block 24 hands its schedule to the frame: the fold closes the
# subpage fault's window, not the page fault's.
@example(
    trace=_writes((0, 28), (0, 24), (1, 0), (1, 4), (0, 25)),
    frames=2, policy="lru", backing="remote",
    scheme=INVARIANT_SCHEMES[-1], congestion=False,
)
def test_fault_dominated_invariants(
    trace, frames, policy, backing, scheme, congestion
):
    """Tiny memory, write-heavy traces, every policy, backing and
    scheme: the counters derived from the log obey the residency
    arithmetic, equal what the instrument hooks counted, and the log's
    records equal the ones rebuilt from the hooks."""
    name, kwargs, subpage = scheme
    config = SimulationConfig(
        memory_pages=frames,
        scheme=name,
        scheme_kwargs=kwargs,
        subpage_bytes=subpage,
        replacement=policy,
        backing=backing,
        congestion=congestion,
    )
    reference = CountingReference()
    sim = Simulator(config, instrument=reference)
    clock, _ = sim._drive_reference(sim._prepare(trace), 0.0, -1)
    result = sim._finish(clock)
    reference.close_windows(clock)

    # Every page fault past the first ``frames`` makes room for itself.
    assert result.evictions == max(0, result.page_faults - frames)
    assert result.dirty_evictions <= result.evictions
    assert result.cancelled_transfers <= result.evictions
    assert result.overlapped_faults <= result.remote_faults

    counters = reference.recorder.metrics.as_dict()["counters"]
    for counter, value in {
        "faults_remote": result.remote_faults,
        "faults_disk": result.disk_faults,
        "faults_subpage": result.subpage_faults,
        "faults_overlapped": result.overlapped_faults,
        "evictions": result.evictions,
        "evictions_dirty": result.dirty_evictions,
        "transfers_cancelled": result.cancelled_transfers,
    }.items():
        assert counters.get(counter, 0) == value, counter

    view = result.fault_records
    if not congestion:
        assert view == reference.records
    else:
        assert len(view) == len(reference.records)
        for mine, theirs in zip(view, reference.records):
            assert dataclasses.replace(mine, window_end_ms=0.0) == (
                dataclasses.replace(theirs, window_end_ms=0.0)
            )
