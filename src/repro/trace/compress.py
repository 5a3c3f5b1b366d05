"""Run-length compression of memory-reference streams.

The simulator never needs to see two consecutive references to the same
256-byte block individually: a fault or a stall can only happen on the
*first* access to a (page, block) pair, and every later reference in the
run simply advances the clock by one event.  Compressing the reference
stream into ``(page, block, count, write)`` runs therefore loses nothing
for the machine model the paper simulates, while making multi-million
reference traces tractable in Python.

Runs are split at 256-byte-block granularity — the finest protection
granularity of the prototype — so a single compressed trace can be
simulated at *any* subpage size (subpage indices are derived from block
indices on the fly).  A run is also split whenever the access type flips
from read to write, so dirty-page tracking stays exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.units import FULL_PAGE_BYTES, MIN_SUBPAGE_BYTES, is_power_of_two


class TraceColumns:
    """Per-run columns for the simulator's drive loop.

    One instance per (trace, subpage size), cached on the owning
    :class:`RunTrace` so sweeps that revisit a trace (or a subpage size)
    pay the array→list conversion once.  Plain Python lists, because the
    per-run loop iterates them fastest.
    """

    __slots__ = ("pages", "subpages", "blocks", "counts", "writes")

    def __init__(
        self, trace: "RunTrace", subpage_bytes: int,
        base: "TraceColumns | None" = None,
    ) -> None:
        self.subpages = trace.subpages(subpage_bytes).tolist()
        if base is not None:
            # Only the subpage column depends on the subpage size; the
            # rest is shared with whatever was built first.
            self.pages = base.pages
            self.blocks = base.blocks
            self.counts = base.counts
            self.writes = base.writes
            return
        self.pages = trace.pages.tolist()
        self.blocks = trace.blocks.tolist()
        self.counts = trace.counts.tolist()
        self.writes = trace.writes.tolist()

    def runs(self) -> Iterator[tuple[int, int, int, int, bool]]:
        """A fresh iterator over ``(page, subpage, block, count, write)``."""
        return zip(
            self.pages, self.subpages, self.blocks, self.counts, self.writes
        )


@dataclass(frozen=True, slots=True)
class RunTrace:
    """A run-length-compressed memory-reference trace.

    Attributes
    ----------
    pages:
        Virtual page number of each run (``int64``).
    blocks:
        Block index (0..blocks_per_page-1) of each run within its page
        (``int16``).
    counts:
        Number of consecutive references in each run (``int64``).
    writes:
        Whether each run is a run of writes (``bool``).
    page_bytes / block_bytes:
        The granularities the trace was compressed at.
    dilation:
        Time-dilation factor: each simulated reference statistically
        represents ``dilation`` references of the workload being modelled.
        The simulator multiplies its per-event cost by this factor, which is
        how down-scaled synthetic traces preserve the paper's exec-time :
        fault-time regime (see DESIGN.md).
    name:
        Optional workload name, carried through to results.
    """

    pages: np.ndarray
    blocks: np.ndarray
    counts: np.ndarray
    writes: np.ndarray
    page_bytes: int = FULL_PAGE_BYTES
    block_bytes: int = MIN_SUBPAGE_BYTES
    dilation: float = 1.0
    name: str = "trace"
    _footprint: list[int] = field(
        default_factory=list, repr=False, compare=False
    )
    _cols: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.pages)
        for label, arr in (
            ("blocks", self.blocks),
            ("counts", self.counts),
            ("writes", self.writes),
        ):
            if len(arr) != n:
                raise TraceError(
                    f"{label} has length {len(arr)}, expected {n}"
                )
        if not is_power_of_two(self.page_bytes):
            raise TraceError(f"bad page size {self.page_bytes}")
        if not is_power_of_two(self.block_bytes):
            raise TraceError(f"bad block size {self.block_bytes}")
        if self.block_bytes > self.page_bytes:
            raise TraceError("block size exceeds page size")
        if self.dilation <= 0:
            raise TraceError(f"dilation must be positive, got {self.dilation}")
        if n and int(self.counts.min(initial=1)) < 1:
            raise TraceError("run counts must be >= 1")
        bpp = self.blocks_per_page
        if n and (int(self.blocks.min()) < 0 or int(self.blocks.max()) >= bpp):
            raise TraceError(f"block indices must lie in [0, {bpp})")

    # -- basic shape ----------------------------------------------------

    def __len__(self) -> int:
        """Number of runs (not references)."""
        return len(self.pages)

    @property
    def num_runs(self) -> int:
        return len(self.pages)

    @property
    def num_references(self) -> int:
        """Total number of memory references represented."""
        return int(self.counts.sum()) if len(self.counts) else 0

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes

    @property
    def compression_ratio(self) -> float:
        """References per run; 1.0 means no compression happened."""
        return self.num_references / max(1, self.num_runs)

    # -- derived workload properties -------------------------------------

    def footprint_pages(self) -> int:
        """Number of distinct pages the trace touches."""
        if not self._footprint:
            unique = len(np.unique(self.pages)) if len(self.pages) else 0
            self._footprint.append(unique)
        return self._footprint[0]

    def footprint_bytes(self) -> int:
        return self.footprint_pages() * self.page_bytes

    def write_fraction(self) -> float:
        """Fraction of references that are writes."""
        total = self.num_references
        if total == 0:
            return 0.0
        return float(self.counts[self.writes].sum()) / total

    def subpages(self, subpage_bytes: int) -> np.ndarray:
        """Per-run subpage index at granularity ``subpage_bytes``."""
        if not is_power_of_two(subpage_bytes):
            raise TraceError(f"bad subpage size {subpage_bytes}")
        if subpage_bytes < self.block_bytes:
            raise TraceError(
                f"subpage size {subpage_bytes} finer than trace block "
                f"granularity {self.block_bytes}"
            )
        if subpage_bytes > self.page_bytes:
            raise TraceError(
                f"subpage size {subpage_bytes} exceeds page size "
                f"{self.page_bytes}"
            )
        return self.blocks // (subpage_bytes // self.block_bytes)

    def columns(self, subpage_bytes: int) -> TraceColumns:
        """Cached :class:`TraceColumns` at ``subpage_bytes`` granularity.

        The drive loop iterates these instead of re-converting the
        arrays per run; size-independent columns are shared across the
        cached entries.
        """
        cols = self._cols.get(subpage_bytes)
        if cols is None:
            base = next(
                (c for c in self._cols.values()
                 if isinstance(c, TraceColumns)),
                None,
            )
            cols = TraceColumns(self, subpage_bytes, base)
            self._cols[subpage_bytes] = cols
        return cols

    def fingerprint(self) -> str:
        """Stable content fingerprint of the trace (cached).

        Hashes the run arrays together with the granularities, dilation,
        and name.  The parallel executor keys its result cache on this,
        and the trace arena uses it to publish each unique trace
        exactly once — caching it here means a 50-cell sweep over one
        trace hashes the arrays once, not 50 times.
        """
        fp = self._cols.get("fp")
        if fp is None:
            digest = hashlib.sha256()
            for arr in (self.pages, self.blocks, self.counts, self.writes):
                digest.update(np.ascontiguousarray(arr).tobytes())
            meta = (
                f"{self.page_bytes}:{self.block_bytes}:{self.dilation}:"
                f"{self.name}"
            )
            digest.update(meta.encode())
            fp = f"sha:{digest.hexdigest()}"
            self._cols["fp"] = fp
        return fp

    def __getstate__(self):
        # The column caches can dwarf the arrays themselves; pickled
        # traces (worker fan-out, result caches) ship without them and
        # each process rebuilds lazily.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_cols", "_footprint")
        }

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_footprint", [])
        object.__setattr__(self, "_cols", {})

    def slice(self, start: int, stop: int) -> "RunTrace":
        """A new trace holding runs ``start:stop``."""
        return RunTrace(
            pages=self.pages[start:stop],
            blocks=self.blocks[start:stop],
            counts=self.counts[start:stop],
            writes=self.writes[start:stop],
            page_bytes=self.page_bytes,
            block_bytes=self.block_bytes,
            dilation=self.dilation,
            name=self.name,
        )

    def with_dilation(self, dilation: float) -> "RunTrace":
        """The same runs with a different time-dilation factor."""
        return RunTrace(
            pages=self.pages,
            blocks=self.blocks,
            counts=self.counts,
            writes=self.writes,
            page_bytes=self.page_bytes,
            block_bytes=self.block_bytes,
            dilation=dilation,
            name=self.name,
        )

    def with_page_size(self, page_bytes: int) -> "RunTrace":
        """Re-derive page/block indices at a different page size.

        Used by the small-pages comparison (paper Section 2.1): the same
        reference stream viewed through e.g. 1K pages.  The new page size
        must be a multiple of the block granularity.
        """
        if not is_power_of_two(page_bytes):
            raise TraceError(f"bad page size {page_bytes}")
        if page_bytes < self.block_bytes:
            raise TraceError(
                f"page size {page_bytes} below block granularity "
                f"{self.block_bytes}"
            )
        global_blocks = (
            self.pages * np.int64(self.blocks_per_page)
            + self.blocks.astype(np.int64)
        )
        new_bpp = page_bytes // self.block_bytes
        return RunTrace(
            pages=global_blocks // new_bpp,
            blocks=(global_blocks % new_bpp).astype(np.int16),
            counts=self.counts,
            writes=self.writes,
            page_bytes=page_bytes,
            block_bytes=self.block_bytes,
            dilation=self.dilation,
            name=self.name,
        )

    def renamed(self, name: str) -> "RunTrace":
        return RunTrace(
            pages=self.pages,
            blocks=self.blocks,
            counts=self.counts,
            writes=self.writes,
            page_bytes=self.page_bytes,
            block_bytes=self.block_bytes,
            dilation=self.dilation,
            name=name,
        )


def compress_references(
    addresses: np.ndarray,
    writes: np.ndarray | None = None,
    *,
    page_bytes: int = FULL_PAGE_BYTES,
    block_bytes: int = MIN_SUBPAGE_BYTES,
    dilation: float = 1.0,
    name: str = "trace",
) -> RunTrace:
    """Run-length compress a raw address stream into a :class:`RunTrace`.

    Parameters
    ----------
    addresses:
        Virtual addresses, any integer dtype.
    writes:
        Optional parallel boolean array; ``None`` means all reads.
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise TraceError("addresses must be a 1-D array")
    if addresses.size and int(addresses.min()) < 0:
        raise TraceError("addresses must be non-negative")
    n = addresses.size
    if writes is None:
        writes = np.zeros(n, dtype=bool)
    else:
        writes = np.asarray(writes, dtype=bool)
        if writes.shape != addresses.shape:
            raise TraceError("writes must parallel addresses")

    if n == 0:
        empty64 = np.empty(0, dtype=np.int64)
        return RunTrace(
            pages=empty64,
            blocks=np.empty(0, dtype=np.int16),
            counts=empty64.copy(),
            writes=np.empty(0, dtype=bool),
            page_bytes=page_bytes,
            block_bytes=block_bytes,
            dilation=dilation,
            name=name,
        )

    addresses = addresses.astype(np.int64, copy=False)
    global_blocks = addresses // block_bytes
    # A run breaks when the (global) block changes or the access type flips.
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.not_equal(global_blocks[1:], global_blocks[:-1], out=breaks[1:])
    breaks[1:] |= writes[1:] != writes[:-1]
    starts = np.flatnonzero(breaks)
    counts = np.diff(np.append(starts, n)).astype(np.int64)

    run_blocks_global = global_blocks[starts]
    blocks_per_page = page_bytes // block_bytes
    pages = run_blocks_global // blocks_per_page
    blocks = (run_blocks_global % blocks_per_page).astype(np.int16)

    return RunTrace(
        pages=pages,
        blocks=blocks,
        counts=counts,
        writes=writes[starts].copy(),
        page_bytes=page_bytes,
        block_bytes=block_bytes,
        dilation=dilation,
        name=name,
    )


def concatenate(traces: list[RunTrace], name: str | None = None) -> RunTrace:
    """Concatenate several compatible traces into one.

    Adjacent runs at the seam are merged when they refer to the same block
    with the same access type, so concatenation commutes with compression.
    """
    if not traces:
        raise TraceError("cannot concatenate zero traces")
    first = traces[0]
    for t in traces[1:]:
        if (
            t.page_bytes != first.page_bytes
            or t.block_bytes != first.block_bytes
        ):
            raise TraceError("traces have mismatched granularities")
        if t.dilation != first.dilation:
            raise TraceError("traces have mismatched dilation")
    pages = np.concatenate([t.pages for t in traces])
    blocks = np.concatenate([t.blocks for t in traces])
    counts = np.concatenate([t.counts for t in traces])
    writes = np.concatenate([t.writes for t in traces])

    if len(pages) > 1:
        same = np.zeros(len(pages), dtype=bool)
        same[1:] = (
            (pages[1:] == pages[:-1])
            & (blocks[1:] == blocks[:-1])
            & (writes[1:] == writes[:-1])
        )
        keep = ~same
        # Fold counts of merged runs into the surviving run before them.
        group = np.cumsum(keep) - 1
        folded = np.zeros(int(group[-1]) + 1, dtype=np.int64)
        np.add.at(folded, group, counts)
        pages, blocks, writes = pages[keep], blocks[keep], writes[keep]
        counts = folded

    return RunTrace(
        pages=pages,
        blocks=blocks,
        counts=counts,
        writes=writes,
        page_bytes=first.page_bytes,
        block_bytes=first.block_bytes,
        dilation=first.dilation,
        name=name if name is not None else first.name,
    )
