"""Golden net for the single drive loop.

Every cell below is simulated and digested — ``summary()`` plus the
distance histogram, every fault record (time, latency, window, waits),
the stall intervals and the TLB / cluster / emulation statistics,
hashed as canonical JSON — and compared with the digest pinned in
``tests/data/single_loop_golden.json``.  The pinned digests were
computed while the simulator still carried a bulk "fast" engine next
to the reference loop and both agreed with ``==`` on every one of these
cells, so a digest mismatch means the loop's arithmetic changed, not
merely its speed.

The cells are the old engine-equivalence matrix (scheme x subpage size
x memory configuration x backing over ``mixed_trace``), the adaptive
cells, replacement policies (also in 3 frames, where evictions meet
pages whose transfers are still in flight), TLB, no-congestion, the
edge traces, and the configurations that used to force the reference
loop (PALcode, observe).  Every cell keeps its distance histogram, so
the histogram is pinned too.

Regenerate (only when a change is *meant* to move the numbers)::

    PYTHONPATH=src python -m tests.sim.test_engine_equivalence --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.core.fault import FaultRecord
from repro.sim import simulator
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.replacement import in_flight, make_policy
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.trace.compress import RunTrace, compress_references
from repro.trace.synth.apps import build_app_trace

from tests.conftest import make_trace, page_addr

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "single_loop_golden.json"


@lru_cache(maxsize=None)
def build_mixed_trace() -> RunTrace:
    """A few thousand runs with faults, stalls, re-references, writes.

    Page visits sweep a handful of blocks (so subpage stalls and folds
    happen under partial-fetch schemes) over a footprint a half-memory
    config cannot hold (so evictions and re-faults happen too).
    """
    rng = np.random.default_rng(42)
    visits = rng.integers(0, 48, size=1_500)
    starts = rng.integers(0, 120, size=1_500)
    blocks = (starts[:, None] + np.arange(6)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.3
    return compress_references(addrs, writes, name="mixed")


@pytest.fixture(scope="module")
def mixed_trace():
    """Also imported by ``tests/core/test_compiled_plans.py``."""
    return build_mixed_trace()


def _fault_row(record: FaultRecord) -> tuple:
    return (
        record.page,
        record.subpage,
        record.kind.name,
        record.time_ms,
        record.sp_latency_ms,
        record.window_start_ms,
        record.window_end_ms,
        record.page_wait_intervals,
        record.cpu_overhead_ms,
        record.overlapped_another,
    )


def cell_digest(result: SimulationResult) -> str:
    """SHA-256 of a result's summary, distances, per-fault records,
    stall intervals and substrate stats."""
    payload = {
        "summary": result.summary(),
        "distances": sorted(result.distance_histogram.items()),
        "faults": [_fault_row(record) for record in result.fault_records],
        "stalls": result.stall_intervals,
        "tlb": result.tlb_stats,
        "cluster": result.cluster_stats,
        "emulation": result.emulation_stats,
    }
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


SCHEME_CELLS = [
    ("fullpage", 8192),
    ("lazy", 512),
    ("lazy", 2048),
    ("eager", 512),
    ("eager", 2048),
    ("pipelined", 512),
    ("pipelined", 2048),
]

ADAPTIVE_CELLS = [
    ({"predictor": "static"}, 1024),
    ({"predictor": "stride", "max_depth": 6}, 512),
    ({"predictor": "stride", "max_depth": 6}, 2048),
    ({"predictor": "stride", "switch_schemes": True}, 1024),
]

FRACTIONS = [1.0, 0.5, 0.25]

#: 256-byte subpages, remote backing: one trailing message then carries
#: up to 31 subpages, the most any message of an 8K page can.
FINE_CELLS = [("eager", 256), ("pipelined", 256)]
FINE_FRACTIONS = [0.5, 0.25]
BACKINGS = ["remote", "disk", "cluster"]
REPLACEMENTS = ["lru", "fifo", "clock", "random"]


def _mixed(fraction: float, **kwargs) -> Callable[[], tuple]:
    def build():
        trace = build_mixed_trace()
        return trace, SimulationConfig(
            memory_pages=memory_pages_for(trace, fraction), **kwargs
        )

    return build


def _tiny(**kwargs) -> Callable[[], tuple]:
    """``mixed_trace`` in 3 frames: evictions often meet pages whose
    transfers are still in flight."""

    def build():
        return build_mixed_trace(), SimulationConfig(memory_pages=3, **kwargs)

    return build


def _edge(addrs: list[int], writes=None, memory_pages: int = 4):
    def build():
        return make_trace(addrs, writes), SimulationConfig(
            memory_pages=memory_pages
        )

    return build


def _app(app: str, fraction: float):
    def build():
        trace = build_app_trace(app)
        return trace, SimulationConfig(
            memory_pages=memory_pages_for(trace, fraction),
            scheme="eager",
            subpage_bytes=1024,
        )

    return build


def golden_cells() -> dict[str, Callable[[], tuple]]:
    """Cell id -> a function building its ``(trace, config)``."""
    cells: dict[str, Callable[[], tuple]] = {}
    for backing in BACKINGS:
        for fraction in FRACTIONS:
            for scheme, subpage in SCHEME_CELLS:
                cells[f"matrix/{backing}/{fraction}/{scheme}/{subpage}"] = (
                    _mixed(fraction, scheme=scheme, subpage_bytes=subpage,
                           backing=backing)
                )
    for fraction in FINE_FRACTIONS:
        for scheme, subpage in FINE_CELLS:
            cells[f"matrix/remote/{fraction}/{scheme}/{subpage}"] = _mixed(
                fraction, scheme=scheme, subpage_bytes=subpage
            )
    for index, (kwargs, subpage) in enumerate(ADAPTIVE_CELLS):
        for fraction in (0.5, 0.25):
            cells[f"adaptive/{fraction}/{index}/{subpage}"] = _mixed(
                fraction, scheme="adaptive", scheme_kwargs=dict(kwargs),
                subpage_bytes=subpage,
            )
    for fraction in (1.0, 0.25):
        cells[f"app/gdb/{fraction}"] = _app("gdb", fraction)
    for replacement in REPLACEMENTS:
        cells[f"replacement/{replacement}"] = _mixed(
            0.5, scheme="eager", subpage_bytes=1024,
            replacement=replacement,
        )
        cells[f"replacement/{replacement}/inflight"] = _tiny(
            scheme="pipelined", subpage_bytes=1024, replacement=replacement,
        )
    cells["tlb"] = _mixed(
        0.5, scheme="eager", subpage_bytes=1024, tlb_entries=16
    )
    cells["no_congestion"] = _mixed(
        0.5, scheme="pipelined", subpage_bytes=1024, congestion=False
    )
    cells["no_congestion/256"] = _mixed(
        0.5, scheme="pipelined", subpage_bytes=256, congestion=False
    )
    cells["palcode"] = _mixed(
        0.5, scheme="eager", subpage_bytes=1024, protection="palcode"
    )
    cells["palcode_tlb"] = _mixed(
        0.25, scheme="pipelined", subpage_bytes=512, protection="palcode",
        tlb_entries=16,
    )
    cells["observe"] = _mixed(
        0.5, scheme="eager", subpage_bytes=1024, observe="metrics"
    )
    cells["edge/single_run"] = _edge([page_addr(0)])
    cells["edge/single_page_hammer"] = _edge(
        [page_addr(0, off) for off in (0, 4096, 0, 4096)] * 500
    )
    cells["edge/trailing_hits"] = _edge(
        [page_addr(p) for p in range(8)]
        + [page_addr(p % 8, 64 * (p % 100)) for p in range(3_000)],
        memory_pages=16,
    )
    cells["edge/alternating_writes"] = _edge(
        [page_addr(p % 4, 512 * (p % 16)) for p in range(2_000)],
        [bool(i % 3 == 0) for i in range(2_000)],
        memory_pages=8,
    )
    return cells


CELLS = golden_cells()


@lru_cache(maxsize=1)
def pinned() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def run_cell(cell_id: str) -> SimulationResult:
    trace, config = CELLS[cell_id]()
    return simulate(trace, config)


def assert_pinned(cell_id: str) -> SimulationResult:
    result = run_cell(cell_id)
    assert cell_digest(result) == pinned()[cell_id], cell_id
    return result


def test_golden_file_covers_every_cell():
    assert set(pinned()) == set(CELLS)


class TestMatrixEquivalence:
    @pytest.mark.parametrize("scheme,subpage", SCHEME_CELLS)
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("backing", BACKINGS)
    def test_cell(self, scheme, subpage, fraction, backing):
        assert_pinned(f"matrix/{backing}/{fraction}/{scheme}/{subpage}")

    @pytest.mark.parametrize("scheme,subpage", FINE_CELLS)
    @pytest.mark.parametrize("fraction", FINE_FRACTIONS)
    def test_fine_subpage_cell(self, scheme, subpage, fraction):
        assert_pinned(f"matrix/remote/{fraction}/{scheme}/{subpage}")

    @pytest.mark.parametrize("kwargs,subpage", ADAPTIVE_CELLS)
    @pytest.mark.parametrize("fraction", [0.5, 0.25])
    def test_adaptive_cell(self, kwargs, subpage, fraction):
        index = ADAPTIVE_CELLS.index((kwargs, subpage))
        assert_pinned(f"adaptive/{fraction}/{index}/{subpage}")

    @pytest.mark.parametrize("app", ["gdb"])
    def test_real_app_trace(self, app):
        """One full-size synthetic application trace, both memory ends."""
        for fraction in (1.0, 0.25):
            assert_pinned(f"app/{app}/{fraction}")


class TestSubstrateEquivalence:
    @pytest.mark.parametrize("replacement", REPLACEMENTS)
    def test_replacement_policies(self, replacement):
        assert_pinned(f"replacement/{replacement}")

    @pytest.mark.parametrize("replacement", REPLACEMENTS)
    def test_replacement_in_flight(self, replacement):
        assert_pinned(f"replacement/{replacement}/inflight")

    @pytest.mark.parametrize("replacement", ["lru", "clock"])
    def test_in_flight_victims_are_skipped(self, replacement, monkeypatch):
        """Witness that the inflight cells reach the preferred-victim
        rule: some eviction passes over the page the policy takes when
        nothing is in flight (the LRU page, or the first unreferenced
        page from the clock hand) because its transfers still are.  Every
        eviction's in-flight flag is what the victim's schedule says."""
        skipped = []

        def watched_policy(name, seed=0):
            policy = make_policy(name, seed)
            evict = policy.evict

            def evict_and_check(now):
                pages = list(policy.frames)
                # Clock's unreferenced pages are its cleared ones.
                cleared = getattr(policy, "_cleared", None)
                plain = next(
                    (p for p in pages if cleared is None or p in cleared),
                    pages[0],
                )
                busy = in_flight(policy.frames[plain], now)
                victim, frame, cancelled = evict(now)
                assert cancelled == in_flight(frame, now)
                if busy and victim != plain:
                    skipped.append(victim)
                return victim, frame, cancelled

            policy.evict = evict_and_check
            return policy

        monkeypatch.setattr(simulator, "make_policy", watched_policy)
        assert_pinned(f"replacement/{replacement}/inflight")
        assert skipped, "no eviction skipped an in-flight page"

    def test_tlb(self):
        result = assert_pinned("tlb")
        assert result.tlb_stats["misses"] > 0

    def test_no_congestion(self):
        assert_pinned("no_congestion")

    def test_no_congestion_fine_subpages(self):
        assert_pinned("no_congestion/256")


class TestPerEventHooks:
    """Configurations that once forced the reference loop."""

    def test_palcode(self):
        result = assert_pinned("palcode")
        assert result.emulation_stats["emulated_accesses"] > 0

    def test_palcode_with_tlb(self):
        assert_pinned("palcode_tlb")

    def test_observe(self):
        result = assert_pinned("observe")
        assert result.metrics


class TestEdgeTraces:
    def test_single_run(self):
        assert_pinned("edge/single_run")

    def test_single_page_hammer(self):
        assert_pinned("edge/single_page_hammer")

    def test_trailing_hits(self):
        assert_pinned("edge/trailing_hits")

    def test_alternating_writes(self):
        assert_pinned("edge/alternating_writes")


def resident_frames(cell_id: str) -> tuple[list, int]:
    """Drive a golden cell through the simulator's stages; return the
    frames resident at the end of the run and the run's full mask."""
    trace, config = CELLS[cell_id]()
    sim = simulator.Simulator(config)
    clock, _ = sim._drive_reference(sim._prepare(trace), 0.0, -1)
    sim._finish(clock)
    return list(sim.policy.frames.values()), sim.full_mask


class TestSettledFrames:
    """A settled frame takes the drive loop's short hit path, so it must
    be a plain resident page: complete, nothing in flight, and its
    first-touch distance recorded."""

    @pytest.mark.parametrize("cell_id", sorted(CELLS))
    def test_settled_frames_are_complete(self, cell_id):
        frames, full_mask = resident_frames(cell_id)
        for frame in frames:
            if frame.settled:
                assert frame.masks is None
                assert frame.valid_bits == full_mask
                assert frame.distance_from is None

    @pytest.mark.parametrize("cell_id", [
        "matrix/remote/1.0/eager/2048",
        "matrix/disk/0.5/fullpage/8192",
        "matrix/cluster/0.25/pipelined/512",
        "app/gdb/1.0",
    ])
    def test_frames_do_settle(self, cell_id):
        frames, _ = resident_frames(cell_id)
        assert any(frame.settled for frame in frames)


def main(argv: list[str]) -> int:
    """Print (or with ``--write``, store) every cell's digest."""
    digests = {cell_id: cell_digest(run_cell(cell_id)) for cell_id in CELLS}
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
