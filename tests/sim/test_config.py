"""Simulation configuration validation and helpers."""

import pytest

from repro.core.schemes import EagerFullPageFetch, SubpagePipelining
from repro.errors import ConfigError
from repro.sim.config import SimulationConfig, memory_pages_for

from tests.conftest import make_trace, page_addr


#: Settings the adaptive scheme no longer takes, each with a value it
#: once accepted: the knees and the history depth are constants, the
#: wrapped pipelined scheme is the paper's default, and only the fault
#: feed is left.
REMOVED_ADAPTIVE_SETTINGS = [
    ("predictor_kwargs", {"window": 4}),
    ("history_depth", 4),
    ("feed", "faults"),
    ("pipeline_count", 4),
    ("segment_subpages", 2),
    ("interrupt_ms", 0.091),
    ("double_initial", True),
    ("min_confidence", 0.1),
    ("full_confidence", 0.9),
]


def config(**kwargs) -> SimulationConfig:
    base = dict(memory_pages=8)
    base.update(kwargs)
    return SimulationConfig(**base)


class TestValidation:
    def test_valid_default(self):
        config().validate()

    def test_rejects_zero_memory(self):
        with pytest.raises(ConfigError):
            config(memory_pages=0).validate()

    def test_rejects_bad_subpage(self):
        with pytest.raises(ConfigError):
            config(subpage_bytes=3000).validate()
        with pytest.raises(ConfigError):
            config(subpage_bytes=16384).validate()

    def test_rejects_unknown_backing(self):
        with pytest.raises(ConfigError):
            config(backing="tape").validate()

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ConfigError, match="replacement"):
            config(replacement="mru").validate()

    def test_rejects_unknown_protection(self):
        with pytest.raises(ConfigError):
            config(protection="ecc").validate()

    def test_rejects_tiny_cluster(self):
        with pytest.raises(ConfigError):
            config(backing="cluster", cluster_nodes=1).validate()

    def test_rejects_bad_event_ns(self):
        with pytest.raises(ConfigError):
            config(event_ns=0).validate()

    def test_rejects_negative_tlb(self):
        with pytest.raises(ConfigError):
            config(tlb_entries=-1).validate()


class TestSchemeBuilding:
    def test_by_name(self):
        assert isinstance(config().build_scheme(), EagerFullPageFetch)

    def test_kwargs_forwarded(self):
        cfg = config(
            scheme="pipelined", scheme_kwargs={"pipeline_count": 5}
        )
        scheme = cfg.build_scheme()
        assert isinstance(scheme, SubpagePipelining)
        assert scheme.pipeline_count == 5

    def test_instance_passthrough(self):
        scheme = EagerFullPageFetch()
        assert config(scheme=scheme).build_scheme() is scheme

    @pytest.mark.parametrize(
        "name,value", REMOVED_ADAPTIVE_SETTINGS,
        ids=[name for name, _ in REMOVED_ADAPTIVE_SETTINGS],
    )
    def test_removed_adaptive_setting_is_refused(self, name, value):
        cfg = config(
            scheme="adaptive",
            scheme_kwargs={"predictor": "stride", name: value},
        )
        with pytest.raises(ConfigError, match=name):
            cfg.build_scheme()


class TestLabels:
    def test_disk_label(self):
        assert config(backing="disk").scheme_label() == "disk_8192"

    def test_eager_label(self):
        assert config(subpage_bytes=2048).scheme_label() == "sp_2048"

    def test_fullpage_label(self):
        assert config(
            scheme="fullpage", subpage_bytes=8192
        ).scheme_label() == "p_8192"

    def test_fullpage_label_with_4k_pages(self):
        small = config(
            scheme="fullpage", subpage_bytes=4096, page_bytes=4096
        )
        assert small.scheme_label() == "p_4096"
        assert small.with_overrides(
            backing="disk"
        ).scheme_label() == "disk_4096"


class TestOverrides:
    def test_with_overrides_copies(self):
        a = config()
        b = a.with_overrides(subpage_bytes=256)
        assert a.subpage_bytes == 1024
        assert b.subpage_bytes == 256
        assert b.memory_pages == a.memory_pages


class TestMemoryPagesFor:
    def test_fractions(self):
        trace = make_trace([page_addr(p) for p in range(100)])
        assert memory_pages_for(trace, 1.0) == 100
        assert memory_pages_for(trace, 0.5) == 50
        assert memory_pages_for(trace, 0.25) == 25

    def test_minimum_one(self):
        trace = make_trace([0])
        assert memory_pages_for(trace, 0.1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            memory_pages_for(make_trace([0]), 0.0)
