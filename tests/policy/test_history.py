"""Per-page access-history ring buffers."""

import pytest

from repro.errors import ConfigError
from repro.policy.history import DEFAULT_DEPTH, AccessHistory


class TestRecording:
    def test_empty(self):
        h = AccessHistory()
        assert h.recent(0) == ()
        assert h.deltas(0) == []
        assert h.last(0) is None
        assert len(h) == 0

    def test_sequence_oldest_first(self):
        h = AccessHistory()
        for sp in (0, 1, 2):
            h.record(7, sp)
        assert h.recent(7) == (0, 1, 2)
        assert h.last(7) == 2

    def test_pages_are_independent(self):
        h = AccessHistory()
        h.record(1, 5)
        h.record(2, 3)
        assert h.recent(1) == (5,)
        assert h.recent(2) == (3,)
        assert len(h) == 2

    def test_ring_evicts_oldest(self):
        h = AccessHistory(depth=3)
        for sp in (0, 1, 2, 3):
            h.record(0, sp)
        assert h.recent(0) == (1, 2, 3)

    def test_immediate_repeats_collapse(self):
        h = AccessHistory()
        for sp in (4, 4, 4, 5, 5, 4):
            h.record(0, sp)
        assert h.recent(0) == (4, 5, 4)

    def test_kind_is_ignored(self):
        h = AccessHistory()
        for kind in ("fault", "touch", "hit"):
            h.record(0, 1, kind)
        h.record(0, 2, "hit")
        assert h.recent(0) == (1, 2)

    def test_clear(self):
        h = AccessHistory()
        h.record(0, 1)
        h.clear()
        assert len(h) == 0
        assert h.recent(0) == ()


class TestDeltas:
    def test_movements(self):
        h = AccessHistory()
        for sp in (0, 2, 1, 5):
            h.record(0, sp)
        assert h.deltas(0) == [2, -1, 4]

    def test_never_zero(self):
        h = AccessHistory()
        for sp in (3, 3, 4, 4, 3):
            h.record(0, sp)
        assert 0 not in h.deltas(0)

    def test_single_observation_has_none(self):
        h = AccessHistory()
        h.record(0, 3)
        assert h.deltas(0) == []


class TestValidation:
    def test_depth_floor(self):
        with pytest.raises(ConfigError):
            AccessHistory(depth=1)

    def test_default_depth(self):
        assert AccessHistory().depth == DEFAULT_DEPTH
