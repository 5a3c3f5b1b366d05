"""Per-page access-history ring buffers."""

from repro.policy.history import AccessHistory


class TestRecording:
    def test_empty(self):
        h = AccessHistory()
        assert h.deltas(0) == []
        assert len(h) == 0

    def test_sequence_oldest_first(self):
        h = AccessHistory()
        for sp in (0, 1, 3):
            h.record(7, sp)
        assert h.deltas(7) == [1, 2]

    def test_pages_are_independent(self):
        h = AccessHistory()
        h.record(1, 5)
        h.record(2, 3)
        h.record(1, 6)
        assert h.deltas(1) == [1]
        assert h.deltas(2) == []
        assert len(h) == 2

    def test_ring_evicts_oldest(self):
        h = AccessHistory()
        for sp in range(AccessHistory.DEPTH + 1):
            h.record(0, sp * sp)
        # The first observation (0) has left the ring: the oldest delta
        # is 4 - 1, not 1 - 0.
        assert h.deltas(0)[0] == 3
        assert len(h.deltas(0)) == AccessHistory.DEPTH - 1

    def test_immediate_repeats_collapse(self):
        h = AccessHistory()
        for sp in (4, 4, 4, 5, 5, 4):
            h.record(0, sp)
        assert h.deltas(0) == [1, -1]

    def test_kind_is_ignored(self):
        h = AccessHistory()
        for kind in ("fault", "touch", ""):
            h.record(0, 1, kind)
        h.record(0, 2, "touch")
        assert h.deltas(0) == [1]

    def test_clear(self):
        h = AccessHistory()
        h.record(0, 1)
        h.record(0, 2)
        h.clear()
        assert len(h) == 0
        assert h.deltas(0) == []


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
    def test_default_depth(self):
        assert AccessHistory.DEPTH == 8
