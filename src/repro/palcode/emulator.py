"""Accounting model for PALcode load/store emulation.

When the simulator runs in *prototype* (software-protection) mode, every
reference to a page that is resident but **incomplete** (some subpages
still in flight) traps to PALcode and is emulated.  The emulator charges
Table 1 costs, distinguishing fast accesses (same page as the previous
emulated access, valid bits cached) from slow ones, and accumulates the
total overhead so experiments can verify the paper's claim that emulation
slows execution by less than 1% (Section 3.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.palcode.costs import emulation_cost_ms


@dataclass(slots=True)
class EmulationStats:
    """Counts and accumulated cost of emulated accesses."""

    fast_loads: int = 0
    slow_loads: int = 0
    fast_stores: int = 0
    slow_stores: int = 0
    overhead_ms: float = 0.0

    @property
    def emulated_accesses(self) -> int:
        return (
            self.fast_loads
            + self.slow_loads
            + self.fast_stores
            + self.slow_stores
        )

    def overhead_fraction(self, execution_ms: float) -> float:
        """Emulation overhead relative to base execution time."""
        if execution_ms <= 0:
            return 0.0
        return self.overhead_ms / execution_ms


@dataclass(slots=True)
class PalEmulator:
    """Charges emulation costs for accesses to incomplete pages."""

    stats: EmulationStats = field(default_factory=EmulationStats)
    _last_page: int | None = field(default=None, repr=False)

    def charge_run(self, page: int, count: int, is_write: bool) -> float:
        """Charge ``count`` emulated accesses to one block of ``page``.

        The first access of the run pays the slow cost if the previous
        emulated access hit a different page; the rest pay the fast cost
        (the PALcode's valid-bit cache stays warm within a run).  Returns
        the total overhead in milliseconds.
        """
        if count <= 0:
            return 0.0
        same = self._last_page == page
        self._last_page = page
        first = emulation_cost_ms(is_write, same)
        rest = emulation_cost_ms(is_write, True) * (count - 1)
        if is_write:
            self.stats.fast_stores += count - 1
            if same:
                self.stats.fast_stores += 1
            else:
                self.stats.slow_stores += 1
        else:
            self.stats.fast_loads += count - 1
            if same:
                self.stats.fast_loads += 1
            else:
                self.stats.slow_loads += 1
        total = first + rest
        self.stats.overhead_ms += total
        return total

    def reset(self) -> None:
        self.stats = EmulationStats()
        self._last_page = None
