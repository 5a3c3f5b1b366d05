"""The five calibrated application models.

These assert the *behavioural* properties the experiments rely on, not
exact numbers: footprints, fault-relevant locality, burstiness contrast,
and determinism.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.trace.synth.apps import (
    APP_MODELS,
    app_names,
    build_app_trace,
    classic_app_names,
    get_app_model,
    modern_app_names,
)


@pytest.fixture(scope="module")
def traces():
    return {name: build_app_trace(name) for name in app_names()}


class TestRegistry:
    def test_nine_apps(self):
        assert len(app_names()) == 9
        assert set(app_names()) == set(APP_MODELS)

    def test_classic_modern_split(self):
        assert classic_app_names() == (
            "modula3", "ld", "atom", "render", "gdb"
        )
        assert set(modern_app_names()) == {
            "kvserve", "graph", "mltrain", "websess"
        }
        assert app_names() == classic_app_names() + modern_app_names()
        for name in classic_app_names():
            assert APP_MODELS[name].era == "1996"
        for name in modern_app_names():
            assert APP_MODELS[name].era == "modern"

    def test_get_app_model(self):
        assert get_app_model("gdb").name == "gdb"

    def test_unknown_app(self):
        with pytest.raises(ConfigError, match="unknown app"):
            get_app_model("emacs")

    def test_unknown_app_error_lists_registered_names(self):
        # The registry diagnostic must name every family (classic and
        # modern) and mention the ingest: escape hatch.
        with pytest.raises(ConfigError) as excinfo:
            get_app_model("emacs")
        message = str(excinfo.value)
        for name in app_names():
            assert name in message
        assert "ingest:" in message

    def test_build_app_trace_unknown_name_lists_names(self):
        with pytest.raises(ConfigError) as excinfo:
            build_app_trace("spark")
        for name in app_names():
            assert name in str(excinfo.value)

    def test_paper_metadata_present(self):
        for model in APP_MODELS.values():
            lo, hi = model.paper_fault_range
            assert 0 < lo < hi
            assert model.paper_refs_millions > 0
            assert model.description


class TestTraceShapes:
    def test_all_apps_build(self, traces):
        for name, trace in traces.items():
            assert trace.name == name
            assert trace.num_references > 100_000 or name == "gdb"

    def test_gdb_matches_paper_reference_count(self, traces):
        # gdb's trace is NOT scaled down: the paper's trace is 0.5M refs.
        assert 0.4e6 < traces["gdb"].num_references < 0.6e6
        assert traces["gdb"].num_runs > 10_000

    def test_footprints_are_plausible(self, traces):
        # Footprints sized so fault counts land near the paper's ranges.
        assert 300 < traces["modula3"].footprint_pages() < 600
        assert 300 < traces["ld"].footprint_pages() < 600
        assert traces["render"].footprint_pages() > 1000
        assert traces["gdb"].footprint_pages() < 250

    def test_render_has_largest_footprint(self, traces):
        fp = {n: t.footprint_pages() for n, t in traces.items()}
        assert max(fp, key=fp.get) == "render"

    def test_dilation_set_for_scaled_apps(self, traces):
        assert traces["gdb"].dilation == 1.0
        for name in ("modula3", "ld", "atom", "render"):
            assert traces[name].dilation > 10

    def test_compression_worthwhile(self, traces):
        for trace in traces.values():
            assert trace.compression_ratio > 4

    def test_writes_present_but_minority(self, traces):
        for trace in traces.values():
            assert 0.02 < trace.write_fraction() < 0.5

    def test_deterministic(self):
        a = build_app_trace("modula3", seed=3)
        b = build_app_trace("modula3", seed=3)
        assert np.array_equal(a.pages, b.pages)
        assert np.array_equal(a.counts, b.counts)

    def test_scale_parameter_shrinks_trace(self):
        small = build_app_trace("ld", scale=0.25)
        full = build_app_trace("ld")
        assert small.num_references < 0.4 * full.num_references

    def test_model_build_carries_provenance(self):
        synthetic = get_app_model("gdb").build(seed=5)
        assert synthetic.name == "gdb"
        assert synthetic.seed == 5
        assert synthetic.model is get_app_model("gdb")
        assert synthetic.trace.name == "gdb"
