"""Integration: every experiment reproduces the paper's shape claims.

These are the acceptance tests of the reproduction — each asserts the
qualitative (and, where sensible, quantitative-band) statements the paper
makes about its tables and figures.  Runs share the cached simulations in
``repro.experiments.common``.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig01_latency,
    fig02_timeline,
    fig03_memsizes,
    fig04_components,
    fig05_waiting,
    fig06_clustering,
    fig07_distances,
    fig08_pipelining,
    fig09_allapps,
    fig10_gdb_atom,
    figzoo_grid,
    get_experiment,
    tab01_palcode,
    tab02_latencies,
)


@pytest.fixture(scope="module")
def fig03():
    return fig03_memsizes.run()


@pytest.fixture(scope="module")
def fig09():
    return fig09_allapps.run()


@pytest.fixture(scope="module")
def figzoo():
    return figzoo_grid.run()


class TestFig01:
    def test_disk_expensive_at_zero_length(self):
        result = fig01_latency.run()
        assert result.series["disk"][0] > 10 * result.series["atm"][0]

    def test_atm_beats_everything_at_8k(self):
        result = fig01_latency.run()
        idx = result.sizes.index(8192)
        atm = result.series["atm"][idx]
        assert atm < result.series["ethernet-idle"][idx]
        assert atm < result.series["disk"][idx]

    def test_even_ethernet_beats_disk_for_small_pages(self):
        result = fig01_latency.run()
        assert result.crossover_vs_disk("ethernet-idle") >= 8192
        assert result.crossover_vs_disk("ethernet-loaded") >= 1024

    def test_all_series_monotone_in_size(self):
        result = fig01_latency.run()
        for series in result.series.values():
            assert series == sorted(series)


class TestTab01:
    def test_paper_ratios(self):
        result = tab01_palcode.run()
        assert result.fast_load_vs_l2_hit == pytest.approx(6.5, abs=0.1)
        assert result.l2_miss_vs_fast_load == pytest.approx(1.6, abs=0.1)

    def test_all_eight_rows(self):
        assert len(tab01_palcode.run().rows) == 8


class TestTab02:
    def test_model_error_bounded(self):
        result = tab02_latencies.run()
        assert result.worst_model_error < 0.07

    def test_1k_vs_2k_surprise(self):
        assert tab02_latencies.run().reproduces_1k_vs_2k_surprise()

    def test_tiny_subpage_loses_sender_pipelining(self):
        assert tab02_latencies.run().tiny_subpage_loses_sender_pipelining()

    def test_derived_columns_match_paper(self):
        result = tab02_latencies.run()
        by_size = {r.subpage_bytes: r for r in result.rows}
        assert by_size[256].overlapped_execution == pytest.approx(
            0.50, abs=0.03
        )
        assert by_size[4096].sender_pipelining == pytest.approx(
            0.17, abs=0.01
        )


class TestFig02:
    def test_2k_resumes_in_under_half_of_fullpage(self):
        result = fig02_timeline.run()
        assert result.resume_ms("eager 2K") < 0.55 * result.completion_ms(
            "fullpage 8K"
        )

    def test_1k_completes_later_than_2k(self):
        result = fig02_timeline.run()
        assert result.completion_ms("eager 1K") > result.completion_ms(
            "eager 2K"
        )

    def test_split_transfer_completes_sooner_than_fullpage(self):
        result = fig02_timeline.run()
        assert result.completion_ms("eager 2K") < result.completion_ms(
            "fullpage 8K"
        )

    def test_pipelined_neighbors_arrive_early(self):
        result = fig02_timeline.run()
        piped = result.timelines["pipelined 1K (+1/-1)"]
        eager = result.timelines["eager 1K"]
        # Same resume; the +1 subpage (segment 1) arrives long before the
        # eager remainder would have.
        assert piped.resume_ms == pytest.approx(eager.resume_ms, rel=0.02)
        assert piped.segment_arrivals_ms[1] < 0.75 * eager.completion_ms


class TestFig03:
    def test_gms_beats_disk_in_paper_band(self, fig03):
        # Paper: "the speedups range from 1.7 to 2.2".
        for memory in ("full-mem", "1/2-mem"):
            assert 1.6 < fig03.disk_speedup(memory) < 2.5

    def test_subpages_beat_fullpage_everywhere(self, fig03):
        for memory in fig03.memory_labels:
            for size in (4096, 2048, 1024, 512, 256):
                assert fig03.improvement_over_fullpage(memory, size) > 0.0

    def test_improvement_grows_with_pressure(self, fig03):
        imp = [
            fig03.improvement_over_fullpage(m, 1024)
            for m in ("full-mem", "1/2-mem", "1/4-mem")
        ]
        assert imp[0] < imp[1] < imp[2]

    def test_best_subpage_is_1k_or_2k(self, fig03):
        # "Over all the applications, subpage sizes of 1K or 2K were
        # best" (Section 4.1).
        for memory in fig03.memory_labels:
            assert fig03.best_subpage(memory) in (1024, 2048)

    def test_half_mem_1k_improvement_band(self, fig03):
        # Paper: 25% at 1/2-mem with 1K subpages.
        assert 0.18 < fig03.improvement_over_fullpage("1/2-mem", 1024) < 0.35

    @pytest.mark.parametrize("app", ["ld", "atom", "render", "gdb"])
    def test_shape_holds_for_every_application(self, app):
        # "Over all the applications, subpage sizes of 1K or 2K were
        # best" (Section 4.1), and the benefit grows with pressure —
        # not just for Modula-3.
        result = fig03_memsizes.run(app)
        improvements = []
        for memory in result.memory_labels:
            assert result.best_subpage(memory) in (1024, 2048)
            improvements.append(
                result.improvement_over_fullpage(memory, 1024)
            )
            assert result.disk_speedup(memory) > 1.3
        assert improvements == sorted(improvements)


class TestFig04:
    def test_sp_latency_falls_with_subpage_size(self):
        result = fig04_components.run()
        fractions = [
            result.sp_latency_fraction(f"sp_{s}")
            for s in (4096, 2048, 1024, 512, 256)
        ]
        assert fractions == sorted(fractions, reverse=True)

    def test_page_wait_rises_as_subpages_shrink(self):
        result = fig04_components.run()
        fractions = [
            result.page_wait_fraction(f"sp_{s}")
            for s in (4096, 2048, 1024, 512, 256)
        ]
        assert fractions == sorted(fractions)

    def test_paper_endpoints(self):
        result = fig04_components.run()
        # Paper: page_wait 2% at 4K -> 35% at 256B.
        assert result.page_wait_fraction("sp_4096") < 0.05
        assert 0.25 < result.page_wait_fraction("sp_256") < 0.45

    def test_fullpage_has_no_page_wait(self):
        result = fig04_components.run()
        assert result.page_wait_fraction("p_8192") == 0.0


class TestFig05:
    def test_three_segment_structure(self):
        result = fig05_waiting.run()
        for size, curve in result.curves.items():
            seg = curve.segments()
            assert seg.best_case_faults > 0
            # Best-case plateau sits at the subpage latency.
            assert curve.right_intercept_ms == pytest.approx(
                curve.subpage_latency_ms, rel=0.15
            )

    def test_best_case_fraction_shrinks_with_subpage(self):
        # "there are fewer faults that achieve best-case overlap" as
        # subpages shrink (Section 4.2).
        result = fig05_waiting.run()
        assert result.best_case_fraction(4096) > result.best_case_fraction(
            256
        )

    def test_large_best_case_fraction(self):
        # "a large fraction of the page faults achieve best-case overlap".
        result = fig05_waiting.run()
        assert result.best_case_fraction(1024) > 0.3


class TestFig06:
    def test_faults_cluster(self):
        result = fig06_clustering.run()
        assert result.burst_fraction > 0.3
        assert result.curve.num_faults > 500


class TestFig07:
    def test_plus_one_dominates(self):
        result = fig07_distances.run()
        for size in (2048, 1024):
            assert result.most_likely_distance(size) == 1
            assert result.plus_one_probability(size) > 0.3

    def test_plus_one_beats_minus_one(self):
        result = fig07_distances.run()
        for size in (2048, 1024):
            dist = result.distributions[size]
            assert dist.probability(1) > dist.probability(-1)


class TestFig08:
    def test_pipelining_cuts_page_wait_substantially(self):
        # Paper: 42% page_wait reduction at 1K subpages.
        result = fig08_pipelining.run()
        assert 0.25 < result.page_wait_reduction(1024) < 0.65

    def test_total_cut_modest(self):
        # Paper: ~10% of the whole execution at 1K.
        result = fig08_pipelining.run()
        assert 0.03 < result.total_reduction(1024) < 0.2

    def test_pipelining_never_loses(self):
        result = fig08_pipelining.run()
        for size in result.components:
            assert result.total_reduction(size) >= 0.0

    def test_pipelining_gain_larger_under_pressure(self):
        # "The improvement is larger for smaller memory configurations"
        # (Section 4.3).
        from repro.experiments import common

        gains = {}
        for fraction in (0.5, 0.25):
            eager = common.run_cached(
                "modula3", fraction, scheme="eager", subpage_bytes=1024
            )
            piped = common.run_cached(
                "modula3", fraction, scheme="pipelined",
                subpage_bytes=1024,
            )
            gains[fraction] = piped.improvement_vs(eager)
        assert gains[0.25] > gains[0.5]


class TestFig09:
    def test_every_app_gains(self, fig09):
        for row in fig09.rows:
            assert row.eager_improvement > 0.1
            assert row.pipelined_improvement > row.eager_improvement

    def test_paper_bands(self, fig09):
        lo_e, hi_e = fig09.eager_range
        lo_p, hi_p = fig09.pipelined_range
        # Paper: eager 20-44%, pipelined 30-54%.
        assert 0.15 < lo_e < 0.30
        assert 0.35 < hi_e < 0.50
        assert hi_p > hi_e

    def test_gdb_gains_most_atom_near_bottom(self, fig09):
        gains = {r.app: r.eager_improvement for r in fig09.rows}
        assert max(gains, key=gains.get) == "gdb"
        assert gains["atom"] < gains["gdb"] - 0.1

    def test_io_overlap_dominates_for_bursty_apps(self, fig09):
        assert fig09.row("gdb").io_overlap_share > 0.7
        for row in fig09.rows:
            assert 0.3 < row.io_overlap_share <= 1.0


class TestFigZoo:
    """The workload-zoo grid and its policy-ranking flips."""

    def test_grid_is_complete(self, figzoo):
        from repro.trace.synth.apps import app_names

        expected = len(app_names()) * (
            len(figzoo_grid.SCHEMES) * len(figzoo_grid.GRID_SUBPAGES)
        )
        assert len(figzoo.cells) == expected
        assert len(figzoo.summaries) == len(app_names())

    def test_classics_keep_the_paper_sweet_spot(self, figzoo):
        # Every 1996 app's best pipelined subpage within the grid is
        # 1K — the paper's headline recommendation.
        from repro.trace.synth.apps import classic_app_names

        for app in classic_app_names():
            assert figzoo.summary(app).best_pipelined_subpage == 1024

    def test_fine_grained_moderns_prefer_256(self, figzoo):
        # Scattered serving workloads keep gaining as subpages shrink:
        # 256B beats the paper's 1K sweet spot for all three.
        for app in ("kvserve", "graph", "websess"):
            assert figzoo.summary(app).best_pipelined_subpage == 256

    def test_mltrain_prefers_coarse(self, figzoo):
        # Long contiguous minibatch reads want whole pages: both
        # schemes peak at the coarsest grid point.
        summary = figzoo.summary("mltrain")
        assert summary.best_eager_subpage == 4096
        assert summary.best_pipelined_subpage == 4096

    def test_every_cell_beats_fullpage_or_close(self, figzoo):
        # Subpage schemes never lose badly anywhere in the grid.
        for cell in figzoo.cells:
            assert cell.improvement > -0.05

    def test_cell_lookup(self, figzoo):
        cell = figzoo.cell("graph", "pipelined", 256)
        assert cell.app == "graph"
        assert cell.era == "modern"
        with pytest.raises(KeyError):
            figzoo.cell("graph", "pipelined", 512)

    def test_render_names_every_app(self, figzoo):
        from repro.trace.synth.apps import app_names

        text = figzoo_grid.render(figzoo)
        for app in app_names():
            assert app in text


class TestFig10:
    def test_gdb_burstier_than_atom(self):
        result = fig10_gdb_atom.run()
        assert result.gdb_burstier_than_atom
        assert result.burst_fraction["gdb"] > 0.8
        assert result.burst_fraction["atom"] < 0.7


class TestFigMT:
    @pytest.fixture(scope="class")
    def figmt(self):
        from repro.experiments import fig11_multitenant

        return fig11_multitenant.run()

    def test_rows_cover_the_grid(self, figmt):
        from repro.experiments.fig11_multitenant import (
            SCHEMES,
            SUBPAGE_SIZES,
            TENANT_COUNTS,
        )

        assert len(figmt.rows) == (
            sum(TENANT_COUNTS) * len(SCHEMES) * len(SUBPAGE_SIZES)
        )
        for tenants in TENANT_COUNTS:
            for scheme in SCHEMES:
                for subpage in SUBPAGE_SIZES:
                    assert len(figmt.cell(tenants, scheme, subpage)) == (
                        tenants
                    )

    def test_contention_slows_tenants_down(self, figmt):
        # Solo cells sit at slowdown 1.0 by construction; contended
        # cells must be at least as slow, and visibly slower at 4.
        for row in figmt.rows:
            if row.tenants == 1:
                assert row.slowdown == pytest.approx(1.0)
            else:
                assert row.slowdown >= 1.0
        four = [r.slowdown for r in figmt.rows if r.tenants == 4]
        assert max(four) > 1.2

    def test_cross_traffic_only_under_contention(self, figmt):
        for row in figmt.rows:
            received = row.cross_queueing_ms + row.cross_preemption_ms
            if row.tenants == 1:
                assert received == 0.0
        contended = [
            r.cross_queueing_ms + r.cross_preemption_ms
            for r in figmt.rows if r.tenants > 1
        ]
        assert any(v > 0 for v in contended)

    def test_pipelining_win_shrinks_under_contention(self, figmt):
        """The headline: contention erodes (without necessarily
        erasing) pipelining's solo advantage at small subpages."""
        from repro.experiments.fig11_multitenant import (
            SUBPAGE_SIZES,
            TENANT_COUNTS,
        )

        small = min(SUBPAGE_SIZES)

        def win(tenants: int) -> float:
            eager = sum(
                r.total_ms for r in figmt.cell(tenants, "eager", small)
            )
            pipe = sum(
                r.total_ms
                for r in figmt.cell(tenants, "pipelined", small)
            )
            return 1.0 - pipe / eager

        assert win(1) > 0.1  # the paper's single-tenant result
        assert win(max(TENANT_COUNTS)) < win(1)

    def test_tenant_metrics_validate(self, figmt):
        from repro.obs.tenants import validate_tenant_metrics

        assert validate_tenant_metrics(figmt.tenant_metrics) == []
        assert figmt.tenant_metrics["fairness"] >= 1.0


class TestRegistry:
    def test_all_experiments_present(self):
        assert len(EXPERIMENTS) == 16

    def test_ids(self):
        assert set(EXPERIMENTS) == {
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
            "fig07", "fig08", "fig09", "fig10", "figAX", "figMT",
            "figZOO", "tab01", "tab02", "scorecard",
        }

    def test_get_unknown(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_every_experiment_renders(self):
        for experiment in EXPERIMENTS.values():
            report = experiment.report()
            assert isinstance(report, str)
            assert len(report) > 50


class TestParallelPlumbing:
    """The grid figures route their cells through the sweep executor."""

    def test_fig03_grid_specs_cover_the_grid(self):
        from repro.experiments import common

        specs = fig03_memsizes.grid_specs()
        assert len(specs) == len(common.MEMORY_FRACTIONS) * (
            2 + len(common.SUBPAGE_SIZES)
        )
        assert all(spec["app"] == fig03_memsizes.APP for spec in specs)

    def test_fig09_grid_specs_cover_the_grid(self):
        from repro.trace.synth.apps import classic_app_names

        specs = fig09_allapps.grid_specs()
        assert len(specs) == 3 * len(classic_app_names())
        schemes = {spec["scheme"] for spec in specs}
        assert schemes == {"fullpage", "eager", "pipelined"}

    def test_figzoo_grid_specs_cover_the_grid(self):
        from repro.trace.synth.apps import app_names

        specs = figzoo_grid.grid_specs()
        # fullpage baseline + scheme x subpage grid, per app.
        per_app = 1 + len(figzoo_grid.SCHEMES) * len(
            figzoo_grid.GRID_SUBPAGES
        )
        assert len(specs) == per_app * len(app_names())

    def test_execution_scope_restores_ambient_options(self):
        from repro.experiments import common
        from repro.sim.parallel import ExecutionOptions

        before = common.execution_options()
        override = ExecutionOptions(workers=2)
        with common.execution_scope(override):
            assert common.execution_options() is override
        assert common.execution_options() is before

    def test_warm_runs_seeds_run_cached(self):
        from repro.experiments import common

        spec = {
            "app": "gdb",
            "memory_fraction": 0.5,
            "scheme": "eager",
            "subpage_bytes": 1024,
        }
        common.warm_runs([spec])
        warmed = common.run_cached("gdb", 0.5, scheme="eager",
                                   subpage_bytes=1024)
        assert warmed.total_ms > 0
        # The second lookup is a pure cache read (same object back).
        assert common.run_cached("gdb", 0.5, scheme="eager",
                                 subpage_bytes=1024) is warmed

    def test_run_with_options_matches_plain_run(self):
        from repro.sim.parallel import ExecutionOptions

        experiment = get_experiment("fig09")
        plain = experiment.run()
        parallel = experiment.run_with(ExecutionOptions(workers=4))
        assert [r.app for r in parallel.rows] == [
            r.app for r in plain.rows
        ]
        for a, b in zip(plain.rows, parallel.rows):
            assert b.eager_improvement == a.eager_improvement
            assert b.pipelined_improvement == a.pipelined_improvement


class TestRunCache:
    """One spec names a run; its cell's content key keys every cache."""

    @pytest.fixture(autouse=True)
    def fresh_run_cache(self):
        from repro.experiments import common

        common.clear_run_cache()
        yield
        common.clear_run_cache()

    def test_run_cache_and_result_cache_share_one_key(self, tmp_path):
        from repro.experiments import common
        from repro.sim.config import SimulationConfig, memory_pages_for
        from repro.sim.parallel import (
            ExecutionOptions,
            ResultCache,
            cell_cache_key,
        )

        events = []
        options = ExecutionOptions(
            cache=ResultCache(tmp_path), progress=events.append
        )
        with common.execution_scope(options):
            result = common.run_cached("gdb", 0.5)
        stored = [path.stem for path in tmp_path.rglob("*.pkl")]
        trace = common.get_trace("gdb")
        config = SimulationConfig(memory_pages=memory_pages_for(trace, 0.5))
        assert stored == [cell_cache_key(trace, config)]
        # The run cache keyed the cell by that same content key.
        assert [event.key for event in events] == stored
        assert ResultCache(tmp_path).get(stored[0]) == result

    def test_observed_and_plain_runs_do_not_shadow(self):
        from repro.experiments import common
        from repro.sim.parallel import ExecutionOptions

        with common.execution_scope(ExecutionOptions()):
            plain = common.run_cached("gdb", 0.5)
        with common.execution_scope(ExecutionOptions(observe="metrics")):
            observed = common.run_cached("gdb", 0.5)
        assert plain.metrics is None
        assert observed.metrics
        assert observed.total_ms == plain.total_ms
        with common.execution_scope(ExecutionOptions()):
            assert common.run_cached("gdb", 0.5) is plain

    def test_any_config_field_names_a_run(self):
        from repro.experiments import common

        piped = common.run_cached(
            "gdb", 0.5, scheme="pipelined", subpage_bytes=1024
        )
        spelled = common.run_cached(
            "gdb", 0.5, scheme="pipelined", subpage_bytes=1024,
            scheme_kwargs={
                "pipeline_count": 2,
                "segment_subpages": 1,
                "interrupt_ms": 0.0,
                "double_initial": False,
            },
        )
        assert spelled == piped

    def test_unknown_field_raises_type_error(self):
        from repro.experiments import common

        with pytest.raises(TypeError):
            common.run_cached("gdb", 0.5, bogus=1)

    def test_model_instance_spec_is_rejected(self):
        from repro.errors import ConfigError
        from repro.experiments import common
        from repro.net.latency import CalibratedLatencyModel

        with pytest.raises(ConfigError, match="content-addressable"):
            common.run_cached(
                "gdb", 0.5, latency_model=CalibratedLatencyModel()
            )
