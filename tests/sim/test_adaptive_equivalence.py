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


def pair(trace, adaptive_kwargs=None, **overrides):
    """The same cell under plain pipelining and transparent adaptive
    (static predictor plus any ``adaptive_kwargs``)."""
    base = dict(track_distances=False)
    base.update(overrides)
    plain = simulate(
        trace, SimulationConfig(scheme="pipelined", **base)
    )
    adaptive = simulate(
        trace,
        SimulationConfig(
            scheme="adaptive",
            scheme_kwargs={"predictor": "static", **(adaptive_kwargs or {})},
            **base,
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

    def test_events_feed(self, mixed_trace):
        """The per-run ``"events"`` feed adds a hit observation for
        every resident run; the static predictor ignores them all."""
        plain, adaptive = pair(
            mixed_trace,
            {"feed": "events"},
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            subpage_bytes=1024,
        )
        assert adaptive == plain

    def test_with_fault_records_and_distances(self, mixed_trace):
        """The per-fault raw material and distance histogram match too
        (the hit path diverges there if observation leaks)."""
        plain, adaptive = pair(
            mixed_trace,
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            subpage_bytes=1024,
            track_distances=True,
            record_faults=True,
        )
        assert adaptive == plain

    @pytest.mark.parametrize(
        "inner_kwargs",
        [
            {"pipeline_count": 4},
            {"segment_subpages": 2},
            {"interrupt_ms": 0.091},
            {"double_initial": True},
        ],
    )
    def test_inner_scheme_knobs_pass_through(
        self, mixed_trace, inner_kwargs
    ):
        base = dict(
            memory_pages=memory_pages_for(mixed_trace, 0.5),
            subpage_bytes=1024,
            track_distances=False,
        )
        plain = simulate(
            mixed_trace,
            SimulationConfig(
                scheme="pipelined", scheme_kwargs=dict(inner_kwargs), **base
            ),
        )
        kwargs = {"predictor": "static", **inner_kwargs}
        if "pipeline_count" in inner_kwargs:
            # Transparency requires max_depth == pipeline_count; the
            # default (None) already tracks it.
            kwargs["max_depth"] = inner_kwargs["pipeline_count"]
        adaptive = simulate(
            mixed_trace,
            SimulationConfig(
                scheme="adaptive", scheme_kwargs=kwargs, **base
            ),
        )
        assert adaptive == plain


class TestSweepIdentity:
    def test_full_grid(self, mixed_trace):
        """Whole ``run_subpage_sweep`` grids compare equal dataclass to
        dataclass: same rows, columns, cell keys, and cell results."""
        plain = run_subpage_sweep(
            mixed_trace,
            SimulationConfig(
                memory_pages=1,
                scheme="pipelined",
                track_distances=False,
            ),
            subpage_sizes=[2048, 1024, 512],
            memory_fractions={"1/2-mem": 0.5, "1/4-mem": 0.25},
        )
        adaptive = run_subpage_sweep(
            mixed_trace,
            SimulationConfig(
                memory_pages=1,
                scheme="adaptive",
                scheme_kwargs={"predictor": "static"},
                track_distances=False,
            ),
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
            track_distances=False,
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
