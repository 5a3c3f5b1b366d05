"""Pipelined-subpage sequencing policies.

With subpage pipelining the server can choose the *order* in which the
remaining subpages of a faulted page are shipped; the goal is for them to
arrive in the order the program will touch them (paper Section 4.3).  The
paper's measurement (Figure 7) shows the next touched subpage on a page is
most likely the one just after the fault (+1), then the one just before
(-1), so its evaluated scheme pipelines +1 then -1 and sends the remainder
in one message.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import ConfigError, SchemeError, UnknownSchemeError


def check_follow_on(
    faulted: int, order: Sequence[int], subpages_per_page: int
) -> None:
    """Validate a follow-on transfer order against the sequencer contract.

    A follow-on order (a :meth:`Sequencer.order` result or a predictor's
    predicted access order) must cover subpages of the faulted page only,
    must not repeat a subpage, and must never include the faulting
    subpage itself — that one is already on the wire, and shipping it
    again is a silent double transfer.  Raises :class:`SchemeError` on
    any violation instead of letting the plan quietly mis-spend
    pipeline slots and wire time.
    """
    seen: set[int] = set()
    for index in order:
        if index == faulted:
            raise SchemeError(
                f"follow-on order includes the faulting subpage "
                f"{faulted} (double transfer)"
            )
        if not 0 <= index < subpages_per_page:
            raise SchemeError(
                f"follow-on order names subpage {index} outside "
                f"[0, {subpages_per_page})"
            )
        if index in seen:
            raise SchemeError(
                f"follow-on order repeats subpage {index} "
                f"(double transfer)"
            )
        seen.add(index)


class Sequencer(ABC):
    """Orders a page's remaining subpages for pipelined transfer."""

    name: str = "base"

    @abstractmethod
    def order(self, faulted: int, subpages_per_page: int) -> list[int]:
        """Full transfer order for all subpages except ``faulted``.

        The scheme takes the first *k* entries as individually pipelined
        subpages and ships the rest in one trailing message.  The order
        must be a pure function of the arguments: the scheme compiles
        it into a plan row once per faulted subpage.
        """

    def _check(self, faulted: int, count: int) -> None:
        if count < 1:
            raise ConfigError("page must have at least one subpage")
        if not 0 <= faulted < count:
            raise ConfigError(
                f"faulted subpage {faulted} outside [0, {count})"
            )


class NeighborSequencer(Sequencer):
    """+1, -1, +2, -2, ... — closest subpages first (the paper's choice)."""

    name = "neighbor"

    def order(self, faulted: int, subpages_per_page: int) -> list[int]:
        self._check(faulted, subpages_per_page)
        out: list[int] = []
        for distance in range(1, subpages_per_page):
            for candidate in (faulted + distance, faulted - distance):
                if 0 <= candidate < subpages_per_page:
                    out.append(candidate)
        return out


class AscendingSequencer(Sequencer):
    """+1, +2, ... to the end of the page, then the preceding subpages.

    Matches a purely sequential-scan prediction.
    """

    name = "ascending"

    def order(self, faulted: int, subpages_per_page: int) -> list[int]:
        self._check(faulted, subpages_per_page)
        after = list(range(faulted + 1, subpages_per_page))
        before = list(range(faulted - 1, -1, -1))
        return after + before


class DistanceSequencer(Sequencer):
    """Order by an empirical next-subpage-distance profile.

    ``profile`` maps signed distances to observed probabilities (e.g. the
    Figure 7 histogram measured by
    :mod:`repro.analysis.distances`); distances absent from the profile
    fall back behind the profiled ones, nearest first.
    """

    name = "distance"

    def __init__(self, profile: dict[int, float]) -> None:
        if 0 in profile:
            raise ConfigError("distance 0 is the faulted subpage itself")
        self.profile = dict(profile)

    def order(self, faulted: int, subpages_per_page: int) -> list[int]:
        self._check(faulted, subpages_per_page)
        candidates = [i for i in range(subpages_per_page) if i != faulted]

        def key(index: int) -> tuple[float, int]:
            distance = index - faulted
            probability = self.profile.get(distance, -1.0)
            # Higher probability first; ties broken by absolute distance.
            return (-probability, abs(distance))

        return sorted(candidates, key=key)


_SEQUENCERS = {
    NeighborSequencer.name: NeighborSequencer,
    AscendingSequencer.name: AscendingSequencer,
}


def make_sequencer(spec: str | Sequencer) -> Sequencer:
    """Build a sequencer from a name or pass an instance through."""
    if isinstance(spec, Sequencer):
        return spec
    try:
        return _SEQUENCERS[spec]()
    except KeyError:
        known = ", ".join(sorted(_SEQUENCERS))
        raise UnknownSchemeError(
            f"unknown sequencer {spec!r}; known: {known} "
            f"(DistanceSequencer needs a profile, construct it directly)"
        ) from None
