"""Next-subpage distance distributions (paper Figure 7).

After a page fault on subpage *i*, which subpage of the same page does the
program touch next?  The paper measures the signed distance (next - i) and
finds strong spatial locality: "there is a high likelihood that the next
subpage faulted on the same page will be the next consecutive subpage
(distance +1)" (Section 4.3).  This distribution is what justifies the
+1/-1 pipelining order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.results import SimulationResult


@dataclass(frozen=True, slots=True)
class DistanceDistribution:
    """Histogram of signed next-subpage distances."""

    label: str
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def probability(self, distance: int) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.counts.get(distance, 0) / total

    def probabilities(self) -> dict[int, float]:
        total = self.total
        if total == 0:
            return {}
        return {
            d: c / total for d, c in sorted(self.counts.items())
        }

    def top(self, n: int = 5) -> list[tuple[int, float]]:
        """The ``n`` most likely distances, most likely first."""
        if n < 1:
            raise ConfigError("n must be >= 1")
        return sorted(
            self.probabilities().items(), key=lambda kv: -kv[1]
        )[:n]

    def mass_within(self, radius: int) -> float:
        """Probability that the next access is within +/-``radius``."""
        if radius < 1:
            raise ConfigError("radius must be >= 1")
        return sum(
            self.probability(d)
            for d in range(-radius, radius + 1)
            if d != 0
        )

    def as_sequencer_profile(self) -> dict[int, float]:
        """The profile a :class:`repro.core.DistanceSequencer` wants."""
        return {d: p for d, p in self.probabilities().items() if d != 0}


def distance_distribution(
    result: SimulationResult, label: str | None = None
) -> DistanceDistribution:
    """Extract Figure 7's distribution from a simulation result.

    Every run keeps the distance histogram, whatever its configuration.
    """
    return DistanceDistribution(
        label=(
            label
            if label is not None
            else f"{result.trace_name}/{result.subpage_bytes}B"
        ),
        counts=dict(result.distance_histogram),
    )
