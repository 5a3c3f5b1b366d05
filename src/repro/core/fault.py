"""Fault records: the per-fault bookkeeping behind Figures 4–10.

Each fault is one row of a run's :class:`FaultLog`.  The subpage latency
is known when the fault is serviced; the page-wait component accrues
afterwards, as the program stalls on not-yet-arrived subpages of the same
page; the rest-of-page window enables the I/O-vs-computation overlap
attribution of Section 4.4; the eviction that made room for the fault
rides in the same row.  :class:`FaultRecord` is the same row as one
object, built on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class FaultKind(enum.Enum):
    """How a fault was serviced."""

    REMOTE = "remote"  # from another node's memory (or local-global)
    DISK = "disk"
    SUBPAGE = "subpage"  # lazy scheme: fault on a subpage of a resident page


#: A :class:`FaultLog` stores each fault's kind as its index here.
FAULT_KINDS: tuple[FaultKind, ...] = tuple(FaultKind)
KIND_CODES: dict[FaultKind, int] = {
    kind: code for code, kind in enumerate(FAULT_KINDS)
}


@dataclass(slots=True)
class FaultRecord:
    """Timing and attribution data for one fault."""

    page: int
    subpage: int
    kind: FaultKind
    #: Simulated time at which the fault occurred.
    time_ms: float
    #: Time the program stalled before resuming (the sp_latency of Fig 4;
    #: for fullpage fetch this is the whole fault latency).
    sp_latency_ms: float
    #: Window during which the rest of the page was in flight:
    #: [resume, rest-of-page arrival].  Zero-length for fullpage/disk.
    window_start_ms: float = 0.0
    window_end_ms: float = 0.0
    #: Stalls attributed to *this* fault's page after resume, i.e. waiting
    #: for in-flight subpages of the same page (page_wait in Fig 4), as
    #: (start, end) intervals in simulated time.
    page_wait_intervals: list[tuple[float, float]] = field(
        default_factory=list
    )
    #: Extra requester-CPU cost charged for this fault (e.g. per-message
    #: interrupt handling for pipelined subpages on the AN2 prototype).
    cpu_overhead_ms: float = 0.0
    #: Whether this fault began while another page's background transfer
    #: was still in flight (an I/O-overlap opportunity).
    overlapped_another: bool = False
    #: The page evicted to make room for this fault (-1: none), whether
    #: it was dirty, and whether a transfer to it was still in flight
    #: (and so cancelled).
    victim: int = -1
    victim_dirty: bool = False
    cancelled: bool = False

    @property
    def page_wait_ms(self) -> float:
        return sum(end - start for start, end in self.page_wait_intervals)

    @property
    def waiting_ms(self) -> float:
        """Total waiting caused by this fault (Figure 5's Y axis)."""
        return self.sp_latency_ms + self.page_wait_ms

    @property
    def window_ms(self) -> float:
        return max(0.0, self.window_end_ms - self.window_start_ms)

    def add_page_wait(self, start_ms: float, end_ms: float) -> None:
        if end_ms > start_ms:
            self.page_wait_intervals.append((start_ms, end_ms))


class FaultLog:
    """A run's faults as typed, append-only columns.

    One row per fault, in fault order.  While the run appends, the log
    is one flat list, ``rows``: each fault extends it by its
    :data:`FIELDS` in order, so a fault costs one ``list.extend`` and
    keeps no container of its own.  The simulator binds
    ``rows.extend`` once per run, finds a fault's row at offset
    ``index * WIDTH`` (writing its page waits through
    :meth:`add_page_wait` and moving its ``window_end_ms`` when its
    transfers fold), and :meth:`freeze` slices the rows into NumPy
    columns.  A finished result thus holds fifteen arrays however many
    faults it saw: it pickles compactly and unpickles without creating
    one Python object per fault.

    The row ends with the eviction that made room for the fault: the
    ``victim`` page (-1 for none), whether it was dirty and whether a
    transfer to it was cancelled.  Page waits are three columns of
    their own: the index of the fault they are charged to, and each
    stall's start and end; they stay lists until :meth:`freeze`.
    """

    #: The per-fault fields, in row order.
    FIELDS: tuple[str, ...] = (
        "page", "subpage", "kind", "time_ms", "sp_latency_ms",
        "window_start_ms", "window_end_ms", "cpu_overhead_ms",
        "overlapped_another", "victim", "victim_dirty", "cancelled",
    )
    #: Fields per row of ``rows``.
    WIDTH = len(FIELDS)

    #: Every column and its frozen dtype, in ``==`` order: the per-fault
    #: columns, then the page-wait columns.
    COLUMNS: dict[str, type] = {
        "page": np.int64,
        "subpage": np.int64,
        "kind": np.int8,
        "time_ms": np.float64,
        "sp_latency_ms": np.float64,
        "window_start_ms": np.float64,
        "window_end_ms": np.float64,
        "cpu_overhead_ms": np.float64,
        "overlapped_another": np.bool_,
        "victim": np.int64,
        "victim_dirty": np.bool_,
        "cancelled": np.bool_,
        "wait_fault": np.int64,
        "wait_start_ms": np.float64,
        "wait_end_ms": np.float64,
    }

    __slots__ = ("rows", *COLUMNS)

    def __init__(self) -> None:
        #: The flat rows while the run appends; ``None`` once frozen.
        self.rows: list | None = []
        self.wait_fault = []
        self.wait_start_ms = []
        self.wait_end_ms = []

    @classmethod
    def from_records(cls, records: Iterable[FaultRecord]) -> "FaultLog":
        """A frozen log holding ``records``, in order."""
        log = cls()
        for record in records:
            index = log.append(
                record.page,
                record.subpage,
                KIND_CODES[record.kind],
                record.time_ms,
                record.sp_latency_ms,
                record.window_start_ms,
                record.window_end_ms,
                record.cpu_overhead_ms,
                record.overlapped_another,
                record.victim,
                record.victim_dirty,
                record.cancelled,
            )
            for start, end in record.page_wait_intervals:
                log.add_page_wait(index, start, end)
        log.freeze()
        return log

    # -- building ------------------------------------------------------------

    def append(
        self,
        page: int,
        subpage: int,
        kind: int,
        time_ms: float,
        sp_latency_ms: float,
        window_start_ms: float,
        window_end_ms: float,
        cpu_overhead_ms: float,
        overlapped_another: bool,
        victim: int = -1,
        victim_dirty: bool = False,
        cancelled: bool = False,
    ) -> int:
        """Add one fault (``kind`` is its :data:`KIND_CODES` code) and
        return its row index.  The simulator extends ``rows`` directly;
        this is the same row with the eviction's fields defaulting to
        none."""
        rows = self.rows
        rows.extend((
            page, subpage, kind, time_ms, sp_latency_ms, window_start_ms,
            window_end_ms, cpu_overhead_ms, overlapped_another, victim,
            victim_dirty, cancelled,
        ))
        return len(rows) // self.WIDTH - 1

    def add_page_wait(self, index: int, start_ms: float, end_ms: float) -> None:
        """Charge the stall ``[start_ms, end_ms)`` to fault ``index``."""
        if end_ms > start_ms:
            self.wait_fault.append(index)
            self.wait_start_ms.append(start_ms)
            self.wait_end_ms.append(end_ms)

    def freeze(self) -> None:
        """Turn every column into a NumPy array (idempotent)."""
        for name in self.COLUMNS:
            setattr(self, name, self.array(name))
        self.rows = None

    # -- reading -------------------------------------------------------------

    def array(self, name: str) -> np.ndarray:
        """Column ``name`` as an array of its frozen dtype (the column
        itself once frozen; a slice of the rows before)."""
        rows = self.rows
        if rows is not None and name in self.FIELDS:
            column = rows[self.FIELDS.index(name)::self.WIDTH]
        else:
            column = getattr(self, name)
        return np.asarray(column, dtype=self.COLUMNS[name])

    def __len__(self) -> int:
        rows = self.rows
        return len(self.page) if rows is None else len(rows) // self.WIDTH

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultLog):
            return NotImplemented
        return all(
            np.array_equal(self.array(name), other.array(name))
            for name in self.COLUMNS
        )

    __hash__ = None  # type: ignore[assignment]

    def waiting_ms(self) -> np.ndarray:
        """Per-fault total waiting time: ``sp_latency + page_wait``.

        The page waits of each fault are summed in the order they
        accrued, starting from zero — the float operations of
        :attr:`FaultRecord.waiting_ms` — so the values are ``==``.
        """
        page_wait = np.bincount(
            self.array("wait_fault"),
            weights=self.array("wait_end_ms") - self.array("wait_start_ms"),
            minlength=len(self),
        )
        return self.array("sp_latency_ms") + page_wait

    def stalls(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stall's ``(starts, ends)``, sorted by start.

        Each fault's service stall ``(time_ms, window_start_ms)`` merged
        with every page wait (see
        :attr:`~repro.sim.results.SimulationResult.stall_intervals`).
        """
        starts = np.concatenate(
            [self.array("time_ms"), self.array("wait_start_ms")]
        )
        ends = np.concatenate(
            [self.array("window_start_ms"), self.array("wait_end_ms")]
        )
        order = np.lexsort((ends, starts))
        return starts[order], ends[order]

    def page_waits(self) -> list[list[tuple[float, float]]]:
        """Each fault's page-wait intervals, in the order they accrued."""
        waits: list[list[tuple[float, float]]] = [[] for _ in range(len(self))]
        for index, start, end in zip(
            self.array("wait_fault").tolist(),
            self.array("wait_start_ms").tolist(),
            self.array("wait_end_ms").tolist(),
        ):
            waits[index].append((start, end))
        return waits

    def records(self, kind: FaultKind | None = None) -> list[FaultRecord]:
        """The faults as :class:`FaultRecord` objects (only those of
        ``kind`` if given), with plain ``int``/``float``/``bool`` and
        :class:`FaultKind` values."""
        fields = self.FIELDS
        rows = zip(
            *(self.array(name).tolist() for name in fields[:7]),
            self.page_waits(),
            *(self.array(name).tolist() for name in fields[7:]),
        )
        wanted = None if kind is None else KIND_CODES[kind]
        return [
            FaultRecord(page, sp, FAULT_KINDS[code], *rest)
            for page, sp, code, *rest in rows
            if wanted is None or code == wanted
        ]
