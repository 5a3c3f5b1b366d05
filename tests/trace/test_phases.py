"""Phase composition and workload building."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.trace.synth.patterns import RandomUniform, Sequential
from repro.trace.synth.phases import (
    WRITE_STRETCH,
    Phase,
    PhaseComponent,
    Workload,
    _interleave,
    _write_stretches,
)
from repro.trace.synth.regions import RegionAllocator


@pytest.fixture()
def regions():
    alloc = RegionAllocator()
    return alloc.allocate_pages("a", 4), alloc.allocate_pages("b", 4)


def phase_for(regions, refs=1000, weights=(1.0, 1.0), write=(0.0, 0.0)):
    a, b = regions
    return Phase(
        name="p",
        refs=refs,
        components=(
            PhaseComponent(a, Sequential(), weights[0], write[0]),
            PhaseComponent(b, RandomUniform(), weights[1], write[1]),
        ),
    )


class TestPhase:
    def test_generates_exact_refs(self, regions):
        addrs, writes = phase_for(regions, refs=1234).generate(
            np.random.default_rng(0)
        )
        assert addrs.shape == (1234,)
        assert writes.shape == (1234,)

    def test_zero_refs(self, regions):
        addrs, writes = phase_for(regions, refs=0).generate(
            np.random.default_rng(0)
        )
        assert addrs.size == 0

    def test_weights_split_refs(self, regions):
        a, b = regions
        addrs, _ = phase_for(regions, refs=10000, weights=(3.0, 1.0)).generate(
            np.random.default_rng(0)
        )
        in_a = np.mean((addrs >= a.base) & (addrs < a.end))
        assert 0.70 < in_a < 0.80

    def test_write_fraction_approximate(self, regions):
        _, writes = phase_for(
            regions, refs=20000, write=(0.5, 0.5)
        ).generate(np.random.default_rng(0))
        assert 0.3 < writes.mean() < 0.7

    def test_single_component_passthrough(self, regions):
        a, _ = regions
        phase = Phase(
            "p", 100, (PhaseComponent(a, Sequential()),)
        )
        addrs, _ = phase.generate(np.random.default_rng(0))
        # Pure sequential: strictly increasing within region.
        assert np.all(np.diff(addrs) == 8)

    def test_interleave_preserves_stream_order(self, regions):
        a, _ = regions
        phase = Phase(
            "p",
            2000,
            (
                PhaseComponent(a, Sequential()),
                PhaseComponent(regions[1], RandomUniform()),
            ),
            interleave_chunk=100,
        )
        addrs, _ = phase.generate(np.random.default_rng(0))
        ours = addrs[(addrs >= a.base) & (addrs < a.end)]
        # The sequential strand stays monotonically increasing even after
        # interleaving (random merge preserves per-stream order).
        assert np.all(np.diff(ours) > 0)

    def test_rejects_no_components(self):
        with pytest.raises(ConfigError):
            Phase("p", 10, ())

    def test_rejects_negative_refs(self, regions):
        a, _ = regions
        with pytest.raises(ConfigError):
            Phase("p", -1, (PhaseComponent(a, Sequential()),))

    def test_rejects_bad_weight(self, regions):
        a, _ = regions
        with pytest.raises(ConfigError):
            PhaseComponent(a, Sequential(), weight=0.0)

    def test_rejects_bad_write_fraction(self, regions):
        a, _ = regions
        with pytest.raises(ConfigError):
            PhaseComponent(a, Sequential(), write_fraction=1.5)


class TestWorkload:
    def test_build_produces_trace(self, regions):
        wl = Workload(name="w", dilation=2.0)
        wl.add(phase_for(regions, refs=5000))
        trace = wl.build(seed=1)
        assert trace.num_references == 5000
        assert trace.name == "w"
        assert trace.dilation == 2.0

    def test_total_refs(self, regions):
        wl = Workload(name="w")
        wl.add(phase_for(regions, refs=100))
        wl.add(phase_for(regions, refs=200))
        assert wl.total_refs == 300

    def test_deterministic_per_seed(self, regions):
        wl = Workload(name="w")
        wl.add(phase_for(regions, refs=3000))
        t1, t2 = wl.build(seed=5), wl.build(seed=5)
        assert np.array_equal(t1.pages, t2.pages)
        assert np.array_equal(t1.counts, t2.counts)

    def test_seeds_differ(self, regions):
        wl = Workload(name="w")
        wl.add(phase_for(regions, refs=3000))
        t1, t2 = wl.build(seed=1), wl.build(seed=2)
        assert not (
            len(t1.pages) == len(t2.pages)
            and np.array_equal(t1.pages, t2.pages)
            and np.array_equal(t1.counts, t2.counts)
        )

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigError):
            Workload(name="w").build()


def reference_write_stretches(n, fraction, rng):
    """Loop form of ``_write_stretches``: the same draws, one slice
    assignment per stretch."""
    writes = np.zeros(n, dtype=bool)
    if fraction <= 0.0 or n == 0:
        return writes
    if fraction >= 1.0:
        writes[:] = True
        return writes
    stretches = max(1, round(n * fraction / WRITE_STRETCH))
    starts = rng.integers(0, max(1, n - WRITE_STRETCH), size=stretches)
    for start in starts:
        writes[start : start + WRITE_STRETCH] = True
    return writes


def reference_interleave(streams, chunk, rng):
    """Loop form of ``_interleave``: the same shuffle, one slice per
    turn."""
    chunk_counts = [-(-len(addrs) // chunk) for addrs, _ in streams]
    turn_order = np.concatenate(
        [np.full(c, i, dtype=np.int64) for i, c in enumerate(chunk_counts)]
    )
    rng.shuffle(turn_order)
    cursors = [0] * len(streams)
    addr_out, write_out = [], []
    for idx in turn_order:
        start = cursors[idx]
        stop = min(start + chunk, len(streams[idx][0]))
        cursors[idx] = stop
        addr_out.append(streams[idx][0][start:stop])
        write_out.append(streams[idx][1][start:stop])
    return np.concatenate(addr_out), np.concatenate(write_out)


class TestVectorizedBuilders:
    """The array forms of the two builders equal their loop forms, draw
    for draw, so every trace fingerprint stays put."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 3000),
        fraction=st.sampled_from([0.0, 0.005, 0.1, 0.5, 0.97, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_write_stretches_match_loop(self, n, fraction, seed):
        ours = _write_stretches(n, fraction, np.random.default_rng(seed))
        ref = reference_write_stretches(
            n, fraction, np.random.default_rng(seed)
        )
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref)

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 2000), min_size=1, max_size=5),
        chunk=st.sampled_from([1, 7, 64, 256, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interleave_matches_loop(self, lengths, chunk, seed):
        if not any(lengths):
            lengths[0] = 1
        data = np.random.default_rng(seed)
        streams = [
            (
                data.integers(0, 2**40, size=n, dtype=np.int64),
                data.random(n) < 0.3,
            )
            for n in lengths
        ]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = _interleave(streams, chunk, rng)
        ref = reference_interleave(streams, chunk, ref_rng)
        for got, want in zip(ours, ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # Both consumed the same draws.
        assert rng.integers(2**62) == ref_rng.integers(2**62)
