"""Page replacement policies.

"Paging policy is determined by a configurable memory management module;
an LRU policy is used by default" (paper Section 3.2).  A policy owns a
run's resident set: :attr:`ReplacementPolicy.frames`, the one
``page -> frame`` map the simulator reads and writes, kept in the
policy's own eviction order.  The simulator adds a page by storing its
frame in the map: a new key lands at the end of the order, which is
where every policy puts a page that has just become resident.  A frame
is the page's own arrival schedule (the simulator's ``_Frame`` is a
:class:`~repro.net.congestion.PendingArrivals`): its ``masks`` are
``None`` when nothing is scheduled, and otherwise one subpage mask per
message still expected, the last of them landing at ``latest_ms``.
Eviction prefers pages whose transfers have all arrived over pages
with subpage transfers still in flight, taking them in the policy's
order, and tells the caller whether its victim was in flight (the
victim's transfers are cancelled).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError, UnknownSchemeError


def in_flight(frame: Any, now: float) -> bool:
    """True while some of ``frame``'s transfers arrive after ``now``."""
    return bool(frame.masks) and frame.latest_ms > now


class ReplacementPolicy(ABC):
    """Holds the resident set and chooses eviction victims."""

    name: str = "base"

    def __init__(self) -> None:
        #: Resident pages -> frames, in this policy's eviction order.
        self.frames: dict[int, Any] = OrderedDict()
        #: Called with a resident page each time the program switches
        #: to it, or ``None`` when references do not affect eviction.
        #: Each policy binds the cheapest callable that keeps its order
        #: (a C method where one exists), so the drive loop binds it
        #: once and pays no Python-level call per page switch.
        self.touch: Callable[[int], Any] | None = None

    @abstractmethod
    def evict(self, now: float) -> tuple[int, Any, bool]:
        """Remove and return ``(page, frame, in_flight)`` of a victim.

        The victim is the policy's normal choice among the pages with
        nothing in flight at ``now`` when any exists, and its
        unconstrained choice otherwise; ``in_flight`` is true exactly in
        that fallback, when every resident page is in flight.
        """


class LruPolicy(ReplacementPolicy):
    """Least-recently-used (the paper's default): ``frames`` runs from
    the least to the most recently referenced page."""

    name = "lru"

    def __init__(self) -> None:
        super().__init__()
        self.touch = self.frames.move_to_end

    def evict(self, now: float) -> tuple[int, Any, bool]:
        # The first page in ``frames``' order with nothing in flight at
        # ``now`` (``in_flight`` inlined), else the first one, in flight.
        frames = self.frames
        for page, frame in frames.items():
            if not frame.masks or not frame.latest_ms > now:
                return page, frames.pop(page), False
        if not frames:
            raise SimulationError("nothing to evict")
        page = next(iter(frames))
        return page, frames.pop(page), True


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: ``frames`` stays in insertion order, and
    eviction scans it exactly as LRU's does."""

    name = "fifo"

    evict = LruPolicy.evict


class ClockPolicy(ReplacementPolicy):
    """Second-chance clock: cheap LRU approximation.  ``frames`` is in
    clock-hand order, the hand at its head.

    Reference bits are kept inverted, as the set of resident pages whose
    bit is *clear*: a page becomes resident referenced (absent from the
    set) with no call into the policy, and a touch sets the bit with the
    set's C-level ``discard``.
    """

    name = "clock"

    def __init__(self) -> None:
        super().__init__()
        self._cleared: set[int] = set()
        self.touch = self._cleared.discard

    def evict(self, now: float) -> tuple[int, Any, bool]:
        frames = self.frames
        if not frames:
            raise SimulationError("nothing to evict")
        cleared = self._cleared
        # Up to two full laps: the first clears reference bits.
        for _ in range(2 * len(frames)):
            page, frame = next(iter(frames.items()))
            if page not in cleared:
                cleared.add(page)
            elif not in_flight(frame, now):
                cleared.discard(page)
                return page, frames.pop(page), False
            frames.move_to_end(page)
        # Every page is in flight: two laps cleared every bit and
        # brought the hand back to where it started.
        page = next(iter(frames))
        cleared.discard(page)
        return page, frames.pop(page), True


class RandomPolicy(ReplacementPolicy):
    """Uniform random eviction (a deliberately weak baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.frames = {}  # eviction ignores order: a plain dict
        self._rng = np.random.default_rng(seed)

    def evict(self, now: float) -> tuple[int, Any, bool]:
        frames = self.frames
        if not frames:
            raise SimulationError("nothing to evict")
        settled = [
            page for page, frame in frames.items()
            if not in_flight(frame, now)
        ]
        pool = settled or list(frames)
        page = pool[int(self._rng.integers(len(pool)))]
        return page, frames.pop(page), not settled


_POLICIES: dict[str, type[ReplacementPolicy]] = {
    LruPolicy.name: LruPolicy,
    FifoPolicy.name: FifoPolicy,
    ClockPolicy.name: ClockPolicy,
    RandomPolicy.name: RandomPolicy,
}


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_POLICIES))


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by registry name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(policy_names())
        raise UnknownSchemeError(
            f"unknown replacement policy {name!r}; known: {known}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(seed=seed)
    return cls()
