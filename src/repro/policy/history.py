"""Per-page access-history ring buffers.

The fault path feeds an :class:`AccessHistory` with every observed
(page, subpage) access, at page faults and incomplete-page touches;
predictors read each page's recent movements (its deltas) back to
detect strides.

Immediate repeats are collapsed: a stall-then-fold sequence touches the
same subpage several times in a row, and a run of zero deltas would
drown the stride vote without carrying any ordering information.
"""

from __future__ import annotations

from collections import deque

#: Observation kinds fed by the simulator.
KIND_FAULT = "fault"
KIND_TOUCH = "touch"


class AccessHistory:
    """Recent subpage accesses per page, oldest first."""

    __slots__ = ("_rings",)

    #: Ring depth: enough deltas for a majority vote without
    #: remembering a phase the program has left.
    DEPTH = 8

    def __init__(self) -> None:
        self._rings: dict[int, deque[int]] = {}

    def record(self, page: int, subpage: int, kind: str = "") -> None:
        """Record one observed access (immediate repeats collapse).

        ``kind`` is accepted and ignored, so a predictor hands this
        method to the policy as its own ``record``."""
        ring = self._rings.get(page)
        if ring is None:
            self._rings[page] = ring = deque(maxlen=self.DEPTH)
        elif ring[-1] == subpage:
            return
        ring.append(subpage)

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

    def __len__(self) -> int:
        return len(self._rings)

    def clear(self) -> None:
        self._rings.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AccessHistory depth={self.DEPTH} pages={len(self)}>"
