"""Golden equivalence: transparent adaptive == static pipelining.

With the ``"static"`` predictor and no adaptive knobs, the
``"adaptive"`` meta-scheme must be a provable no-op around
``SubpagePipelining``: it reorders nothing (the predictor emits the
neighbor order at full confidence), deepens nothing (``max_depth``
defaults to ``pipeline_count``), and switches nothing.  This suite
holds it to *bit identity* — complete ``SimulationResult`` dataclass
equality, which covers the scheme name and label too (transparent mode
reports the inner scheme's identity) — across the integration matrix
and whole :func:`~repro.sim.sweep.run_subpage_sweep` grids.

That anchor is what makes the adaptive subsystem safe to ship inside
the scheme registry: turning it on with the static predictor changes
no result anywhere, so every behavioural difference ever observed is
attributable to a *predictor*, never to the plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.simulator import simulate
from repro.sim.sweep import run_subpage_sweep
from repro.trace.compress import compress_references


@pytest.fixture(scope="module")
def mixed_trace():
    """Faults, stalls, folds, evictions — same recipe as the golden
    single-loop suite but an independent draw."""
    rng = np.random.default_rng(1234)
    visits = rng.integers(0, 40, size=1_200)
    starts = rng.integers(0, 120, size=1_200)
    blocks = (starts[:, None] + np.arange(5)) % 128
    addrs = (visits[:, None] * 8192 + blocks * 64).ravel()
    writes = rng.random(addrs.size) < 0.25
    return compress_references(addrs, writes, name="mixed-adaptive")


def pair(trace, **overrides):
    """The same cell under plain pipelining and transparent adaptive
    (static predictor)."""
    plain = simulate(
        trace, SimulationConfig(scheme="pipelined", **overrides)
    )
    adaptive = simulate(
        trace,
        SimulationConfig(
            scheme="adaptive",
            scheme_kwargs={"predictor": "static"},
            **overrides,
        ),
    )
    return plain, adaptive


class TestMatrixIdentity:
    @pytest.mark.parametrize("subpage", [512, 1024, 2048])
    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("backing", ["remote", "cluster"])
    def test_cell(self, mixed_trace, subpage, fraction, backing):
        plain, adaptive = pair(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, fraction),
            subpage_bytes=subpage,
            backing=backing,
        )
        assert adaptive == plain

    def test_with_fault_records_and_distances(self, mixed_trace):
        """The per-fault raw material and distance histogram match too
        (the hit path diverges there if observation leaks)."""
        plain, adaptive = pair(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            subpage_bytes=1024,
        )
        assert adaptive == plain


class TestSweepIdentity:
    def test_full_grid(self, mixed_trace):
        """Whole ``run_subpage_sweep`` grids compare equal dataclass to
        dataclass: same rows, columns, cell keys, and cell results."""
        plain = run_subpage_sweep(
            mixed_trace,
            {"scheme": "pipelined"},
            subpage_sizes=[2048, 1024, 512],
            memory_fractions={"1/2-mem": 0.5, "1/4-mem": 0.25},
        )
        adaptive = run_subpage_sweep(
            mixed_trace,
            {"scheme": "adaptive", "scheme_kwargs": {"predictor": "static"}},
            subpage_sizes=[2048, 1024, 512],
            memory_fractions={"1/2-mem": 0.5, "1/4-mem": 0.25},
        )
        assert adaptive == plain


class TestDivergenceIsDetectable:
    """Sanity for the identity suite: a *non*-transparent configuration
    really does change results (the comparisons above are not vacuous),
    and it announces itself through its label and stats."""

    def test_stride_predictor_diverges_and_is_labelled(self, mixed_trace):
        cfg = SimulationConfig(
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            scheme="adaptive",
            scheme_kwargs={"predictor": "stride", "max_depth": 6},
            subpage_bytes=1024,
        )
        adaptive = simulate(mixed_trace, cfg)
        plain, _ = pair(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            subpage_bytes=1024,
        )
        assert adaptive.scheme_label == "ad_1024"
        assert adaptive.scheme_name == "adaptive"
        assert adaptive.policy_stats  # scoreboard published
        assert adaptive != plain
