"""Per-page access-history ring buffers.

The fault path feeds an :class:`AccessHistory` with every observed
(page, subpage) access; predictors read each page's recent subpage
sequence (and its deltas) back to detect strides and direction trends.
Observations arrive at page faults and incomplete-page touches by
default, or additionally at the first touch of every reference run
when a policy asks for the ``"events"`` feed.

Immediate repeats are collapsed: a stall-then-fold sequence touches the
same subpage several times in a row, and a run of zero deltas would
drown the stride vote without carrying any ordering information.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

#: Observation kinds fed by the simulator.
KIND_FAULT = "fault"
KIND_TOUCH = "touch"
KIND_HIT = "hit"

#: Default ring depth: enough deltas for a majority vote without
#: remembering a phase the program has left.
DEFAULT_DEPTH = 8


class AccessHistory:
    """Recent subpage accesses per page, oldest first."""

    __slots__ = ("depth", "_rings")

    def __init__(self, depth: int = DEFAULT_DEPTH) -> None:
        if depth < 2:
            raise ConfigError("history depth must be >= 2")
        self.depth = depth
        self._rings: dict[int, deque[int]] = {}

    def record(self, page: int, subpage: int) -> None:
        """Record one observed access (immediate repeats collapse)."""
        ring = self._rings.get(page)
        if ring is None:
            self._rings[page] = ring = deque(maxlen=self.depth)
        elif ring[-1] == subpage:
            return
        ring.append(subpage)

    def recent(self, page: int) -> tuple[int, ...]:
        """The page's recent subpage sequence, oldest first."""
        ring = self._rings.get(page)
        return tuple(ring) if ring is not None else ()

    def deltas(self, page: int) -> list[int]:
        """Signed distances between consecutive observations.

        Never contains zeros (immediate repeats are collapsed on
        record), so every delta is a real movement across the page.
        """
        ring = self._rings.get(page)
        if ring is None or len(ring) < 2:
            return []
        seq = list(ring)
        return [b - a for a, b in zip(seq, seq[1:])]

    def last(self, page: int) -> int | None:
        """Most recently observed subpage of ``page`` (or ``None``)."""
        ring = self._rings.get(page)
        return ring[-1] if ring else None

    def __len__(self) -> int:
        return len(self._rings)

    def clear(self) -> None:
        self._rings.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AccessHistory depth={self.depth} pages={len(self)}>"
