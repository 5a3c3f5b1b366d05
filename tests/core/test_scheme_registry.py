"""Registry round-trips: every scheme name builds, labels, fingerprints,
and pickles identically.

The sweep/caching machinery assumes a scheme name (plus kwargs) is a
complete, stable description of scheme behaviour: labels key sweep
cells, config fingerprints key the on-disk result cache, and configs
pickle to worker processes.  Each registered name — including the
plugin-registered ``"adaptive"`` — must honor all three contracts.
"""

import pickle

import pytest

from repro.core.schemes import make_scheme, scheme_names
from repro.errors import ConfigError, ReproError, UnknownSchemeError
from repro.sim.config import SimulationConfig
from repro.sim.parallel import config_fingerprint

#: Representative kwargs per scheme (empty = defaults suffice).
SCHEME_KWARGS = {
    "fullpage": {},
    "lazy": {},
    "eager": {},
    "pipelined": {"pipeline_count": 3},
    "adaptive": {"predictor": "stride", "max_depth": 6},
}


def configs_for(name):
    return SimulationConfig(
        memory_pages=16,
        scheme=name,
        scheme_kwargs=dict(SCHEME_KWARGS.get(name, {})),
        subpage_bytes=1024,
    )


class TestEveryRegisteredName:
    def test_kwargs_table_covers_registry(self):
        assert set(scheme_names()) == set(SCHEME_KWARGS)

    @pytest.mark.parametrize("name", scheme_names())
    def test_builds(self, name):
        scheme = make_scheme(name, **SCHEME_KWARGS.get(name, {}))
        assert scheme.name in (name, "pipelined")  # transparent adaptive

    @pytest.mark.parametrize("name", scheme_names())
    def test_builds_from_config(self, name):
        cfg = configs_for(name)
        cfg.validate()
        scheme = cfg.build_scheme()
        assert scheme.label(1024)

    @pytest.mark.parametrize("name", scheme_names())
    def test_label_is_stable(self, name):
        label = configs_for(name).scheme_label()
        assert label == configs_for(name).scheme_label()
        assert isinstance(label, str) and label

    @pytest.mark.parametrize("name", scheme_names())
    def test_fingerprint_stable(self, name):
        cfg = configs_for(name)
        fp = config_fingerprint(cfg)
        assert fp is not None
        # Deterministic: an identical config fingerprints identically.
        assert fp == config_fingerprint(configs_for(name))
        # Every field participates: a different seed is a different cell.
        assert fp != config_fingerprint(cfg.with_overrides(seed=1))

    @pytest.mark.parametrize("name", scheme_names())
    def test_config_pickles_identically(self, name):
        cfg = configs_for(name)
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert config_fingerprint(clone) == config_fingerprint(cfg)
        assert clone.scheme_label() == cfg.scheme_label()

    @pytest.mark.parametrize("name", scheme_names())
    def test_built_scheme_pickles(self, name):
        scheme = make_scheme(name, **SCHEME_KWARGS.get(name, {}))
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone.name == scheme.name
        assert clone.label(1024) == scheme.label(1024)


class TestUnknownSchemeErrors:
    def test_make_scheme_lists_registered_names(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            make_scheme("teleport")
        message = str(excinfo.value)
        for name in scheme_names():
            assert name in message
        # Not KeyError's quoted-repr rendering.
        assert not message.startswith("\"")

    def test_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            make_scheme("teleport")
        with pytest.raises(KeyError):  # backward compatible
            make_scheme("teleport")

    def test_build_scheme_names_the_config_field(self):
        cfg = SimulationConfig(memory_pages=16, scheme="teleport")
        with pytest.raises(UnknownSchemeError, match="config field"):
            cfg.build_scheme()
        with pytest.raises(UnknownSchemeError, match="known schemes"):
            cfg.build_scheme()

    def test_build_scheme_surfaces_bad_kwargs(self):
        cfg = SimulationConfig(
            memory_pages=16,
            scheme="pipelined",
            scheme_kwargs={"warp_factor": 9},
        )
        with pytest.raises(ConfigError, match="scheme_kwargs"):
            cfg.build_scheme()
