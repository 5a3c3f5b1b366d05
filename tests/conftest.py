"""Shared fixtures: tiny deterministic traces and a fixed latency model."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.trace.compress import RunTrace, compress_references


class FixedLatencyModel:
    """A latency model with easy-to-reason-about constants.

    Subpage latency is 0.5 ms for any subpage size below the page size;
    rest-of-page arrives at 1.5 ms; a fullpage fault costs 2.0 ms.  Wire
    time is proportional to size with the full page taking 1.0 ms.
    """

    def __init__(self, page_bytes: int = 8192) -> None:
        self.page_bytes = page_bytes
        self.request_fixed_ms = 0.25
        self.receive_cpu_ms = 0.25

    def subpage_latency_ms(self, subpage_bytes: int) -> float:
        if subpage_bytes >= self.page_bytes:
            return 2.0
        return 0.5

    def rest_of_page_ms(self, subpage_bytes: int) -> float:
        if subpage_bytes >= self.page_bytes:
            return 2.0
        return 1.5

    def fullpage_latency_ms(self) -> float:
        return 2.0

    def wire_time_ms(self, size_bytes: int) -> float:
        return size_bytes / self.page_bytes


class PlacedFault(NamedTuple):
    """A :data:`~repro.core.plans.Placement` with named fields, so tests
    can assert on it."""

    resume_ms: float
    valid_bits: int
    masks: tuple[int, ...]
    arrivals: list[float]
    demand_wire_ms: float
    background_ready_ms: float
    background_wire_ms: float
    cpu_overhead_ms: float

    @property
    def follow(self) -> list[tuple[int, float]]:
        """One ``(subpage_mask, arrival_ms)`` pair per message that
        lands after resume."""
        return list(zip(self.masks, self.arrivals))

    @property
    def arrivals_ms(self) -> dict[int, float]:
        """Per-subpage arrival: every valid subpage at resume, every
        follow-on at its message's time."""
        arrivals = {}
        for mask, arrival in ((self.valid_bits, self.resume_ms),
                              *self.follow):
            for index in range(mask.bit_length()):
                if mask >> index & 1:
                    arrivals[index] = arrival
        return arrivals


def place(
    scheme,
    subpage: int = 2,
    block: int | None = None,
    subpage_bytes: int = 1024,
    now: float = 10.0,
    page: int = 5,
    latency=None,
) -> PlacedFault:
    """One fault planned through ``scheme``'s planner on an 8K page (the
    fixed latency model by default; the faulted block defaults to the
    subpage's first)."""
    if block is None:
        block = subpage * (subpage_bytes // 256)
    plan = scheme.planner(
        latency if latency is not None else FixedLatencyModel(),
        subpage_bytes,
        8192,
    )
    return PlacedFault(*plan(now, page, subpage, block))


@pytest.fixture()
def fixed_latency() -> FixedLatencyModel:
    return FixedLatencyModel()


def make_trace(
    addresses: list[int], writes: list[bool] | None = None, **kwargs
) -> RunTrace:
    """Build a RunTrace from explicit addresses."""
    w = np.array(writes, dtype=bool) if writes is not None else None
    return compress_references(np.array(addresses, dtype=np.int64), w,
                               **kwargs)


def page_addr(page: int, offset: int = 0, page_bytes: int = 8192) -> int:
    """Address of byte ``offset`` within ``page``."""
    return page * page_bytes + offset


@pytest.fixture()
def base_config(fixed_latency: FixedLatencyModel) -> SimulationConfig:
    """An eager-fetch config with the fixed latency model and a 1 us
    event cost (so reference counts convert trivially to time)."""
    return SimulationConfig(
        memory_pages=8,
        scheme="eager",
        subpage_bytes=1024,
        latency_model=fixed_latency,
        event_ns=1000.0,  # 1 us per reference
        congestion=False,
        use_trace_dilation=False,
    )
