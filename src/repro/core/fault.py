"""Fault records: the per-fault bookkeeping behind Figures 4–10.

Each fault is one row of a run's :class:`FaultLog`.  The subpage latency
is known when the fault is serviced; the page-wait component accrues
afterwards, as the program stalls on not-yet-arrived subpages of the same
page; the rest-of-page window enables the I/O-vs-computation overlap
attribution of Section 4.4.  :class:`FaultRecord` is the same row as one
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

    One row per fault, in fault order; ``append`` returns the row's
    index, through which the simulator later writes the fault's page
    waits (:meth:`add_page_wait`) and moves its ``window_end_ms`` (the
    fold).  The columns are lists while the run appends and NumPy
    arrays once :meth:`freeze` has run, so a finished result holds a
    dozen arrays however many faults it saw: it pickles compactly and
    unpickles without creating one Python object per fault.

    Page waits are three columns of their own: the index of the fault
    they are charged to, and each stall's start and end.
    """

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
        "wait_fault": np.int64,
        "wait_start_ms": np.float64,
        "wait_end_ms": np.float64,
    }

    __slots__ = tuple(COLUMNS)

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])

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
    ) -> int:
        """Add one fault (``kind`` is its :data:`KIND_CODES` code) and
        return its row index."""
        self.page.append(page)
        self.subpage.append(subpage)
        self.kind.append(kind)
        self.time_ms.append(time_ms)
        self.sp_latency_ms.append(sp_latency_ms)
        self.window_start_ms.append(window_start_ms)
        self.window_end_ms.append(window_end_ms)
        self.cpu_overhead_ms.append(cpu_overhead_ms)
        self.overlapped_another.append(overlapped_another)
        return len(self.page) - 1

    def add_page_wait(self, index: int, start_ms: float, end_ms: float) -> None:
        """Charge the stall ``[start_ms, end_ms)`` to fault ``index``."""
        if end_ms > start_ms:
            self.wait_fault.append(index)
            self.wait_start_ms.append(start_ms)
            self.wait_end_ms.append(end_ms)

    def freeze(self) -> None:
        """Turn every column into a NumPy array (idempotent)."""
        for name in self.__slots__:
            setattr(self, name, self.array(name))

    # -- reading -------------------------------------------------------------

    def array(self, name: str) -> np.ndarray:
        """Column ``name`` as an array of its frozen dtype (the column
        itself once frozen)."""
        return np.asarray(getattr(self, name), dtype=self.COLUMNS[name])

    def __len__(self) -> int:
        return len(self.page)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultLog):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
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
        rows = zip(
            *(
                self.array(name).tolist()
                for name in (
                    "page", "subpage", "kind", "time_ms", "sp_latency_ms",
                    "window_start_ms", "window_end_ms",
                )
            ),
            self.page_waits(),
            self.array("cpu_overhead_ms").tolist(),
            self.array("overlapped_another").tolist(),
        )
        wanted = None if kind is None else KIND_CODES[kind]
        return [
            FaultRecord(page, sp, FAULT_KINDS[code], *rest)
            for page, sp, code, *rest in rows
            if wanted is None or code == wanted
        ]
