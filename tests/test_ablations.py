"""The behavioural ablations (DESIGN.md §5), one class per ablation.

Each class states the claim an ablation makes about the simulator and
checks it on the ablation's own apps, seeds, memory fractions and
configs.  Plain cells go through the experiments' shared run cache
(:func:`repro.experiments.common.run_cached`); cells that carry a model
instance (a scaled latency model, a measured sequencer, a resized page)
run through :func:`~repro.sim.simulator.simulate` on the experiments'
shared traces.  Abl D lives in ``tests/sim/test_replacement.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.distances import distance_distribution
from repro.core.sequencers import DistanceSequencer
from repro.experiments.common import get_trace, run_cached
from repro.net.calibration import interrupt_cost_ms
from repro.net.latency import (
    CalibratedLatencyModel,
    FixedOverheadLatencyModel,
    ScaledLatencyModel,
)
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.simulator import simulate
from repro.trace.synth.apps import build_app_trace, classic_app_names
from repro.trace.synth.stackdist import (
    StackDistanceSpec,
    generate_stack_distance_trace,
)

TLB = {"tlb_entries": 32, "tlb_miss_ns": 400.0}


def half_memory(app: str) -> tuple:
    """``app``'s trace and the frames that hold half its footprint."""
    trace = get_trace(app)
    return trace, memory_pages_for(trace, 0.5)


def nondecreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


class TestLazyAndSmallPages:
    """Abl A (§2.1): lazy subpage fetch and small pages both lose to
    eager fetch, and small pages pay extra TLB misses (modula3, 1/2
    memory, 1K, 32-entry TLB)."""

    @pytest.fixture(scope="class")
    def runs(self):
        trace, memory = half_memory("modula3")
        runs = {
            label: run_cached("modula3", 0.5, scheme=scheme,
                              subpage_bytes=size, **TLB)
            for label, scheme, size in (
                ("fullpage", "fullpage", 8192),
                ("eager", "eager", 1024),
                ("lazy", "lazy", 1024),
            )
        }
        # The same stream through 1K pages, with the memory capacity and
        # the latency model restated in 1K units.
        runs["small"] = simulate(trace.with_page_size(1024), SimulationConfig(
            memory_pages=memory * 8,
            scheme="fullpage",
            subpage_bytes=1024,
            page_bytes=1024,
            latency_model=CalibratedLatencyModel(page_bytes=1024),
            **TLB,
        ))
        return runs

    def test_eager_beats_fullpage_beats_lazy_and_small_pages(self, runs):
        fullpage = runs["fullpage"].total_ms
        assert runs["eager"].total_ms < fullpage
        assert runs["lazy"].total_ms > fullpage
        assert runs["small"].total_ms > fullpage

    def test_small_pages_pay_over_twice_the_tlb_time(self, runs):
        # A 32-entry TLB covers 256 KB of 8K pages but 32 KB of 1K pages.
        assert (
            runs["small"].components.tlb_miss_ms
            > 2 * runs["fullpage"].components.tlb_miss_ms
        )


class TestPipelineVariants:
    """Abl B (§4.3): every pipelining variant improves on eager fetch
    (modula3, 1/2 memory, 512B subpages)."""

    VARIANTS = {
        "+1/-1": {},
        "ascending": {"sequencer": "ascending"},
        "deep": {"pipeline_count": 4},
        "doubled follow-on": {"segment_subpages": 2},
        "doubled initial": {"double_initial": True},
    }

    @pytest.fixture(scope="class")
    def runs(self):
        runs = {
            label: run_cached("modula3", 0.5, scheme="pipelined",
                              scheme_kwargs=kwargs, subpage_bytes=512)
            for label, kwargs in self.VARIANTS.items()
        }
        runs["eager"] = run_cached(
            "modula3", 0.5, scheme="eager", subpage_bytes=512
        )
        return runs

    def test_every_variant_beats_eager(self, runs):
        for label in self.VARIANTS:
            assert runs[label].total_ms < runs["eager"].total_ms, label

    def test_doubled_follow_on_cuts_page_wait(self, runs):
        # A 1K follow-on behind a 512B fault: less waiting on the rest.
        assert (
            runs["doubled follow-on"].components.page_wait_ms
            < runs["+1/-1"].components.page_wait_ms
        )


class TestNetSpeed:
    """Abl C (conclusions): as the network speeds up relative to memory,
    the optimal subpage size never grows, pipelining's optimum stays at
    or below eager fetch's, and the 256B penalty shrinks (modula3, 1/2
    memory)."""

    SPEEDUPS = (1.0, 2.0, 4.0, 8.0)
    SIZES = (4096, 2048, 1024, 512, 256)

    @pytest.fixture(scope="class")
    def totals(self):
        trace, memory = half_memory("modula3")
        return {
            scheme: {
                speedup: {
                    size: simulate(trace, SimulationConfig(
                        memory_pages=memory,
                        scheme=scheme,
                        subpage_bytes=size,
                        latency_model=ScaledLatencyModel(
                            CalibratedLatencyModel(), speedup
                        ),
                    )).total_ms
                    for size in self.SIZES
                }
                for speedup in self.SPEEDUPS
            }
            for scheme in ("eager", "pipelined")
        }

    @staticmethod
    def optimum(by_size):
        return min(by_size, key=by_size.get)

    @pytest.mark.parametrize("scheme", ["eager", "pipelined"])
    def test_faster_networks_help_every_size(self, totals, scheme):
        for size in self.SIZES:
            assert totals[scheme][8.0][size] < totals[scheme][1.0][size]

    @pytest.mark.parametrize("scheme", ["eager", "pipelined"])
    def test_optimum_never_grows(self, totals, scheme):
        optima = [self.optimum(totals[scheme][s]) for s in self.SPEEDUPS]
        assert nonincreasing(optima)

    @pytest.mark.parametrize("scheme", ["eager", "pipelined"])
    def test_small_subpage_penalty_shrinks(self, totals, scheme):
        penalties = [
            by_size[256] / by_size[self.optimum(by_size)] - 1.0
            for by_size in (totals[scheme][s] for s in self.SPEEDUPS)
        ]
        assert decreasing(penalties)

    def test_pipelining_prefers_subpages_no_larger(self, totals):
        for speedup in self.SPEEDUPS:
            assert self.optimum(totals["pipelined"][speedup]) <= (
                self.optimum(totals["eager"][speedup])
            )


class TestInterruptCost:
    """Abl E (§4.3): with an ideal controller pipelining beats eager
    fetch; with the AN2's measured per-message interrupt cost it does
    not (modula3, 1/2 memory)."""

    @pytest.fixture(scope="class", params=[1024, 256])
    def runs(self, request):
        size = request.param
        return {
            "eager": run_cached(
                "modula3", 0.5, scheme="eager", subpage_bytes=size
            ),
            "ideal": run_cached(
                "modula3", 0.5, scheme="pipelined", subpage_bytes=size
            ),
            # The AN2 pipelines the whole remainder as subpages.
            "an2": run_cached(
                "modula3", 0.5, scheme="pipelined", subpage_bytes=size,
                scheme_kwargs={
                    "interrupt_ms": interrupt_cost_ms(size),
                    "pipeline_count": 8192 // size - 1,
                },
            ),
        }

    def test_ideal_pipelining_beats_eager(self, runs):
        assert runs["ideal"].total_ms < runs["eager"].total_ms

    def test_an2_interrupts_eat_the_benefit(self, runs):
        assert runs["an2"].total_ms > runs["ideal"].total_ms
        assert runs["an2"].total_ms > 0.97 * runs["eager"].total_ms


class TestProfiledPipelining:
    """Abl F (§4.3): a pipelining order built from the measured Figure 7
    distance profile does about as well as the hand-picked +1/-1 order
    (1/2 memory, 1K)."""

    @pytest.fixture(scope="class", params=["modula3", "render"])
    def runs(self, request):
        app = request.param
        trace, memory = half_memory(app)
        eager = run_cached(app, 0.5, scheme="eager", subpage_bytes=1024)
        profile = distance_distribution(eager).as_sequencer_profile()
        measured = simulate(trace, SimulationConfig(
            memory_pages=memory,
            scheme="pipelined",
            scheme_kwargs={"sequencer": DistanceSequencer(profile)},
            subpage_bytes=1024,
        ))
        neighbor = run_cached(
            app, 0.5, scheme="pipelined", subpage_bytes=1024
        )
        return eager, neighbor, measured, profile

    def test_measured_order_beats_eager(self, runs):
        eager, _, measured, _ = runs
        assert measured.total_ms < eager.total_ms

    def test_measured_order_within_2_percent_of_neighbor_order(self, runs):
        _, neighbor, measured, _ = runs
        assert measured.total_ms <= neighbor.total_ms * 1.02

    def test_most_likely_distance_is_plus_one(self, runs):
        profile = runs[3]
        assert max(profile, key=profile.get) == 1


class TestSeedRobustness:
    """Abl G: eager 1K's improvement over fullpage at 1/2 memory holds on
    every app across trace seeds 0-2, and gdb gains most."""

    SEEDS = (0, 1, 2)

    @pytest.fixture(scope="class")
    def improvements(self):
        out = {}
        for app in classic_app_names():
            out[app] = []
            for seed in self.SEEDS:
                # Only seed 0 is shared; caching the others would push
                # the other tests' traces out of get_trace's cache.
                trace = get_trace(app) if seed == 0 else build_app_trace(
                    app, seed=seed
                )
                memory = memory_pages_for(trace, 0.5)
                eager, fullpage = (
                    simulate(trace, SimulationConfig(
                        memory_pages=memory, scheme=scheme,
                        subpage_bytes=size,
                    ))
                    for scheme, size in (("eager", 1024), ("fullpage", 8192))
                )
                out[app].append(eager.improvement_vs(fullpage))
        return out

    @staticmethod
    def mean(values):
        return sum(values) / len(values)

    def test_every_seed_improves_by_over_10_percent(self, improvements):
        for app, values in improvements.items():
            assert min(values) > 0.1, app

    def test_spread_small_next_to_the_effect(self, improvements):
        for app, values in improvements.items():
            assert max(values) - min(values) < 0.6 * self.mean(values), app

    def test_gdb_gains_most_and_stably(self, improvements):
        means = {app: self.mean(v) for app, v in improvements.items()}
        assert max(means, key=means.get) == "gdb"
        gdb = improvements["gdb"]
        assert self.mean(gdb) > 0.2
        assert max(gdb) - min(gdb) < 0.15


class TestAdaptivePolicy:
    """The online adaptive fetch policy (figAX's arms, 1/2 memory, 1K):
    transparent mode ties plain pipelining exactly, the stride predictor
    covers and predicts most faults, and it wins on modula3."""

    ARMS = {
        "transparent": {"predictor": "static"},
        "stride": {"predictor": "stride", "max_depth": 6},
    }

    @pytest.fixture(scope="class", params=["modula3", "ld"])
    def runs(self, request):
        return self.arms(request.param)

    def arms(self, app):
        runs = {
            label: run_cached(app, 0.5, scheme="adaptive",
                              scheme_kwargs=kwargs, subpage_bytes=1024)
            for label, kwargs in self.ARMS.items()
        }
        runs["static"] = run_cached(
            app, 0.5, scheme="pipelined", subpage_bytes=1024
        )
        return runs

    def test_transparent_ties_pipelining_exactly(self, runs):
        assert runs["transparent"] == runs["static"]

    def test_stride_covers_and_predicts(self, runs):
        stats = runs["stride"].policy_stats
        assert stats["coverage"] > 0.9
        assert stats["pred_hit_rate"] > 0.5

    def test_stride_gains_on_modula3(self):
        # The headline win is on the sequential-heavy compile workload.
        runs = self.arms("modula3")
        gain = runs["stride"].improvement_vs(runs["static"])
        assert gain > 0.02, f"stride arm gained only {gain:.1%}"


class TestFixedOverhead:
    """Abl H (§2.2): eager 1K's benefit over fullpage shrinks
    monotonically as the fixed software fault cost grows from 0.25x to
    4x the prototype's (modula3, 1/2 memory)."""

    FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)

    @pytest.fixture(scope="class")
    def improvements(self):
        trace, memory = half_memory("modula3")
        out = []
        for factor in self.FACTORS:
            model = FixedOverheadLatencyModel(
                CalibratedLatencyModel(), factor
            )
            fullpage, eager = (
                simulate(trace, SimulationConfig(
                    memory_pages=memory, scheme=scheme,
                    subpage_bytes=size, latency_model=model,
                ))
                for scheme, size in (("fullpage", 8192), ("eager", 1024))
            )
            out.append(eager.improvement_vs(fullpage))
        return out

    def test_benefit_falls_as_overhead_grows(self, improvements):
        assert decreasing(improvements)

    def test_benefit_large_when_fast_diminished_when_slow(self, improvements):
        assert improvements[0] > 0.25
        assert 0.0 < improvements[-1] < improvements[0] - 0.05


class TestColdCache:
    """Abl I (§4.1): warm global memory is at least as good as cold,
    which is at least as good as disk; a cold cluster keeps most of the
    benefit only under memory pressure (modula3, eager 1K)."""

    FRACTIONS = (1.0, 0.5, 0.25)

    @pytest.fixture(scope="class")
    def runs(self):
        def cell(fraction, **fields):
            return run_cached("modula3", fraction, **fields)

        return {
            fraction: {
                "disk": cell(fraction, scheme="fullpage",
                             subpage_bytes=8192, backing="disk"),
                "warm": cell(fraction, scheme="eager", subpage_bytes=1024,
                             backing="cluster"),
                "cold": cell(fraction, scheme="eager", subpage_bytes=1024,
                             backing="cluster", cluster_warm=False),
            }
            for fraction in self.FRACTIONS
        }

    def test_warm_no_worse_than_cold_no_worse_than_disk(self, runs):
        for fraction, res in runs.items():
            assert res["warm"].total_ms <= res["cold"].total_ms + 1e-6
            assert res["cold"].total_ms <= res["disk"].total_ms + 1e-6

    def test_cold_barely_beats_disk_at_full_memory(self, runs):
        full = runs[1.0]
        assert full["cold"].total_ms > 0.9 * full["disk"].total_ms

    def test_cold_keeps_most_of_the_speedup_under_pressure(self, runs):
        quarter = runs[0.25]
        disk_ms = quarter["disk"].total_ms
        warm_speedup = disk_ms / quarter["warm"].total_ms
        cold_speedup = disk_ms / quarter["cold"].total_ms
        assert cold_speedup > 0.6 * warm_speedup


class TestGeneratorFamily:
    """Abl J: on LRU stack-distance workloads (a different generator
    family) fullpage beats disk and eager 1K beats fullpage at 1/2
    memory, and the benefit grows as locality loosens."""

    THETAS = (1.2, 0.8, 0.4)  # tight -> loose locality

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for theta in self.THETAS:
            trace = generate_stack_distance_trace(
                StackDistanceSpec(
                    refs=600_000,
                    theta=theta,
                    max_depth=300,
                    max_pages=320,
                    new_page_prob=0.02,
                    run_words=24,
                    name=f"stackdist-{theta:g}",
                ),
                dilation=25.0,
            )
            memory = memory_pages_for(trace, 0.5)
            out[theta] = {
                label: simulate(trace, SimulationConfig(
                    memory_pages=memory, scheme=scheme,
                    subpage_bytes=size, backing=backing,
                ))
                for label, scheme, size, backing in (
                    ("disk", "fullpage", 8192, "disk"),
                    ("fullpage", "fullpage", 8192, "remote"),
                    ("eager", "eager", 1024, "remote"),
                )
            }
        return out

    def test_eager_beats_fullpage_beats_disk(self, runs):
        for theta, res in runs.items():
            assert res["fullpage"].total_ms < res["disk"].total_ms, theta
            assert res["eager"].total_ms < res["fullpage"].total_ms, theta

    def test_benefit_grows_as_locality_loosens(self, runs):
        improvements = [
            runs[t]["eager"].improvement_vs(runs[t]["fullpage"])
            for t in self.THETAS
        ]
        assert nondecreasing(improvements)


class TestCongestion:
    """Abl K (§3.2): a sequential program cannot congest its own receive
    link at AN2 speed; congestion matters, increasingly, as the network
    slows (render, eager 1K, 1/2 memory)."""

    SPEEDS = (1.0, 0.5, 0.25, 0.125)

    @pytest.fixture(scope="class")
    def runs(self):
        trace, memory = half_memory("render")
        return {
            speed: {
                congestion: simulate(trace, SimulationConfig(
                    memory_pages=memory,
                    scheme="eager",
                    subpage_bytes=1024,
                    latency_model=ScaledLatencyModel(
                        CalibratedLatencyModel(), speed
                    ),
                    congestion=congestion,
                ))
                for congestion in (True, False)
            }
            for speed in self.SPEEDS
        }

    def inflations(self, runs):
        return [
            runs[s][True].total_ms / runs[s][False].total_ms - 1.0
            for s in self.SPEEDS
        ]

    def test_congestion_never_shortens_a_run(self, runs):
        assert all(x >= -1e-9 for x in self.inflations(runs))

    def test_no_congestion_at_an2_speed(self, runs):
        assert self.inflations(runs)[0] < 0.005
        assert runs[1.0][True].link_stats["queueing_delay_ms"] < 1.0

    def test_impact_grows_as_the_network_slows(self, runs):
        inflations = self.inflations(runs)
        assert all(b >= a - 1e-9 for a, b in zip(inflations, inflations[1:]))
        assert inflations[-1] > 0.05


class TestTlbCoverage:
    """Abl L (introduction): TLB time falls and per-fault latency rises
    as pages grow; 8K pages with eager 1K fetch keep large-page TLB
    coverage and win overall (modula3, half-footprint memory, 32-entry
    TLB)."""

    PAGE_SIZES = (1024, 2048, 4096, 8192)

    @pytest.fixture(scope="class")
    def runs(self):
        trace = get_trace("modula3")
        half = trace.footprint_pages() // 2  # in 8K pages
        by_size = {}
        for page_bytes in self.PAGE_SIZES:
            by_size[page_bytes] = simulate(
                trace if page_bytes == 8192
                else trace.with_page_size(page_bytes),
                SimulationConfig(
                    # The same physical memory at every page size.
                    memory_pages=half * (8192 // page_bytes),
                    scheme="fullpage",
                    subpage_bytes=page_bytes,
                    page_bytes=page_bytes,
                    latency_model=CalibratedLatencyModel(
                        page_bytes=page_bytes
                    ),
                    **TLB,
                ),
            )
        subpages = simulate(trace, SimulationConfig(
            memory_pages=half, scheme="eager", subpage_bytes=1024, **TLB,
        ))
        return by_size, subpages

    def test_tlb_time_falls_as_pages_grow(self, runs):
        by_size, _ = runs
        assert nonincreasing(
            [by_size[p].components.tlb_miss_ms for p in self.PAGE_SIZES]
        )

    def test_fault_latency_rises_as_pages_grow(self, runs):
        by_size, _ = runs
        per_fault = [
            by_size[p].components.sp_latency_ms
            / max(1, by_size[p].page_faults)
            for p in self.PAGE_SIZES
        ]
        assert all(b > a for a, b in zip(per_fault, per_fault[1:]))

    def test_subpages_get_both_and_win(self, runs):
        by_size, subpages = runs
        assert subpages.components.tlb_miss_ms == pytest.approx(
            by_size[8192].components.tlb_miss_ms, rel=0.2
        )
        assert subpages.total_ms < min(r.total_ms for r in by_size.values())
