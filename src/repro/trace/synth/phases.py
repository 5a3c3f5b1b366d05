"""Phased workload composition.

A :class:`Workload` is a list of :class:`Phase` objects executed in order.
Each phase interleaves one or more ``(region, pattern)`` components.  Phase
boundaries that shift the set of touched regions are what produce the
bursts of page faults the paper observes at program phase changes
(Section 4.2, Figures 6 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.trace.compress import RunTrace, compress_references
from repro.trace.synth.patterns import AccessPattern
from repro.trace.synth.regions import Region

#: Writes are emitted in contiguous stretches of this many references so
#: that write/read flips do not shatter run-length compression.
WRITE_STRETCH = 32


@dataclass(frozen=True, slots=True)
class PhaseComponent:
    """One strand of a phase: a pattern over a region with a weight."""

    region: Region
    pattern: AccessPattern
    weight: float = 1.0
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("component weight must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class Phase:
    """A program phase: ``refs`` references split across components.

    ``interleave_chunk`` is the granularity (in references) at which the
    components are woven together; small chunks model tight loops touching
    several structures, large chunks model distinct passes.
    """

    name: str
    refs: int
    components: tuple[PhaseComponent, ...]
    interleave_chunk: int = 256

    def __post_init__(self) -> None:
        if self.refs < 0:
            raise ConfigError(f"phase {self.name!r}: refs must be >= 0")
        if not self.components:
            raise ConfigError(f"phase {self.name!r}: needs >= 1 component")
        if self.interleave_chunk <= 0:
            raise ConfigError(
                f"phase {self.name!r}: interleave_chunk must be positive"
            )

    def generate(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (addresses, writes) arrays for this phase."""
        if self.refs == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

        weights = np.array([c.weight for c in self.components], dtype=float)
        shares = weights / weights.sum()
        counts = np.floor(shares * self.refs).astype(int)
        counts[0] += self.refs - int(counts.sum())

        streams = []
        for component, count in zip(self.components, counts):
            addrs = component.pattern.generate(
                component.region, int(count), rng
            )
            writes = _write_stretches(
                int(count), component.write_fraction, rng
            )
            streams.append((addrs, writes))

        if len(streams) == 1:
            return streams[0]
        return _interleave(streams, self.interleave_chunk, rng)


@dataclass(slots=True)
class Workload:
    """An ordered sequence of phases that builds into a :class:`RunTrace`."""

    name: str
    phases: list[Phase] = field(default_factory=list)
    page_bytes: int = 8192
    block_bytes: int = 256
    dilation: float = 1.0

    def add(self, phase: Phase) -> "Workload":
        self.phases.append(phase)
        return self

    @property
    def total_refs(self) -> int:
        return sum(p.refs for p in self.phases)

    def build(self, seed: int = 0) -> RunTrace:
        """Generate, concatenate, and compress all phases."""
        if not self.phases:
            raise ConfigError(f"workload {self.name!r} has no phases")
        rng = np.random.default_rng(seed)
        addr_parts: list[np.ndarray] = []
        write_parts: list[np.ndarray] = []
        for phase in self.phases:
            addrs, writes = phase.generate(rng)
            addr_parts.append(addrs)
            write_parts.append(writes)
        addresses = np.concatenate(addr_parts)
        writes = np.concatenate(write_parts)
        return compress_references(
            addresses,
            writes,
            page_bytes=self.page_bytes,
            block_bytes=self.block_bytes,
            dilation=self.dilation,
            name=self.name,
        )


def _write_stretches(
    n: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Mark ~``fraction`` of ``n`` refs as writes, in contiguous stretches."""
    if fraction <= 0.0 or n == 0:
        return np.zeros(n, dtype=bool)
    if fraction >= 1.0:
        return np.ones(n, dtype=bool)
    stretches = max(1, round(n * fraction / WRITE_STRETCH))
    starts = rng.integers(0, max(1, n - WRITE_STRETCH), size=stretches)
    covered = (starts[:, None] + np.arange(WRITE_STRETCH)).ravel()
    writes = np.zeros(n, dtype=bool)
    writes[covered[covered < n]] = True
    return writes


def _interleave(
    streams: list[tuple[np.ndarray, np.ndarray]],
    chunk: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Weave several (addresses, writes) streams together chunk by chunk.

    Chunks are drawn from the streams in a randomized round-robin whose
    draw probabilities match the remaining lengths, so the mix stays
    roughly proportional throughout the phase.
    """
    # Random merge preserving each stream's internal chunk order, so a
    # sequential scan stays temporally sequential even when interleaved
    # with other strands.
    lengths = [len(addrs) for addrs, _ in streams]
    chunk_counts = [-(-n // chunk) for n in lengths]
    turn_order = np.repeat(
        np.arange(len(streams), dtype=np.int64), chunk_counts
    )
    rng.shuffle(turn_order)
    # Lay the streams end to end, each padded to whole chunks, so chunk
    # g (counting stream by stream) is row g of a (rows, chunk) view.
    # Each turn takes the next row of its stream; the padding is dropped.
    rows = sum(chunk_counts)
    dtype = np.result_type(*(addrs for addrs, _ in streams if len(addrs)))
    addrs = np.empty(rows * chunk, dtype=dtype)
    writes = np.zeros(rows * chunk, dtype=bool)
    filled = np.zeros(rows * chunk, dtype=bool)
    start = 0
    for (part, part_writes), n, count in zip(streams, lengths, chunk_counts):
        addrs[start : start + n] = part
        writes[start : start + n] = part_writes
        filled[start : start + n] = True
        start += count * chunk
    row = np.empty_like(turn_order)
    row[np.argsort(turn_order, kind="stable")] = np.arange(rows)
    keep = filled.reshape(rows, chunk)[row].ravel()
    return (
        addrs.reshape(rows, chunk)[row].ravel()[keep],
        writes.reshape(rows, chunk)[row].ravel()[keep],
    )
