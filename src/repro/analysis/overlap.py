"""I/O-overlap vs computational-overlap attribution (paper Section 4.4).

Eager fullpage fetch hides the rest-of-page transfer behind whatever the
program does during the in-flight window [subpage arrival, rest-of-page
arrival]:

* time the program spends **stalled on other faults** during the window is
  *overlapped I/O* — two transfers in flight at once;
* time the program spends **executing** during the window is
  *overlapped computation*;
* time spent stalled waiting for subpages of the *same* page (page_wait)
  is not hidden at all — it is the unhidden remainder.

The paper reports the share of speedup due to overlapped I/O as 53%
(Atom) to 83% (gdb).  This module computes the same attribution from a
run's fault log: its window columns, its page-wait columns and the
stalls derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fault import KIND_CODES, FaultKind
from repro.sim.results import SimulationResult


@dataclass(frozen=True, slots=True)
class OverlapAttribution:
    """Where the rest-of-page in-flight windows went."""

    label: str
    #: Window time hidden behind stalls on *other* faults.
    io_overlap_ms: float
    #: Window time hidden behind program execution.
    comp_overlap_ms: float
    #: Window time the program spent waiting for this page (unhidden).
    own_wait_ms: float
    num_windows: int

    @property
    def total_window_ms(self) -> float:
        return self.io_overlap_ms + self.comp_overlap_ms + self.own_wait_ms

    @property
    def hidden_ms(self) -> float:
        """The benefit: window time actually overlapped with something."""
        return self.io_overlap_ms + self.comp_overlap_ms

    @property
    def io_share(self) -> float:
        """Fraction of the hidden (beneficial) time that was I/O overlap.

        This is the quantity the paper reports per application (53-83%).
        """
        hidden = self.hidden_ms
        return 0.0 if hidden <= 0 else self.io_overlap_ms / hidden


def _interval_overlap_ms(
    starts: np.ndarray,
    ends: np.ndarray,
    cumulative: np.ndarray,
    lo: float,
    hi: float,
) -> float:
    """Total overlap of disjoint sorted intervals with [lo, hi]."""
    if hi <= lo or starts.size == 0:
        return 0.0
    # Intervals possibly intersecting [lo, hi]: those with end > lo and
    # start < hi.
    first = int(np.searchsorted(ends, lo, side="right"))
    last = int(np.searchsorted(starts, hi, side="left"))
    if first >= last:
        return 0.0
    total = float(cumulative[last] - cumulative[first])
    # Clip the boundary intervals.
    total -= max(0.0, lo - float(starts[first]))
    total -= max(0.0, float(ends[last - 1]) - hi)
    return max(0.0, total)


def attribute_overlap(
    result: SimulationResult, label: str | None = None
) -> OverlapAttribution:
    """Attribute every remote fault's in-flight window (see module doc)."""
    faults = result.faults
    starts, ends = faults.stalls()
    durations = ends - starts
    cumulative = np.concatenate([[0.0], np.cumsum(durations)])

    io_ms = 0.0
    comp_ms = 0.0
    own_ms = 0.0
    windows = 0
    remote = KIND_CODES[FaultKind.REMOTE]
    for kind, lo, hi, page_waits in zip(
        faults.array("kind").tolist(),
        faults.array("window_start_ms").tolist(),
        faults.array("window_end_ms").tolist(),
        faults.page_waits(),
    ):
        if kind != remote or hi <= lo:
            continue
        windows += 1
        stalled = _interval_overlap_ms(starts, ends, cumulative, lo, hi)
        own = 0.0
        for s, e in page_waits:
            own += max(0.0, min(e, hi) - max(s, lo))
        own_ms += own
        io = max(0.0, stalled - own)
        io_ms += io
        comp_ms += max(0.0, (hi - lo) - stalled)
    return OverlapAttribution(
        label=label if label is not None else result.trace_name,
        io_overlap_ms=io_ms,
        comp_overlap_ms=comp_ms,
        own_wait_ms=own_ms,
        num_windows=windows,
    )
