"""Replacement policies."""

from types import BuiltinMethodType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, UnknownSchemeError
from repro.net.congestion import PendingArrivals
from repro.sim.config import SimulationConfig, memory_pages_for
from repro.sim.replacement import (
    RandomPolicy,
    make_policy,
    policy_names,
)
from repro.sim.simulator import simulate
from repro.trace.synth.apps import build_app_trace

ALL = ["lru", "fifo", "clock", "random"]


class Frame(PendingArrivals):
    """A resident frame whose transfers arrive at ``until`` (``None``:
    nothing was ever in flight; ``-1``: an empty arrival schedule).

    Like the simulator's frame it is its own schedule, with ``masks``
    ``None`` when nothing is scheduled."""

    def __init__(self, until: int | None = None) -> None:
        if until is None:
            super().__init__()
            self.masks = None
        elif until < 0:
            super().__init__()
        else:
            super().__init__([(1, float(until))])


def filled(name, pages, busy=()):
    """A policy holding ``pages``; those in ``busy`` are in flight
    until t=10."""
    policy = make_policy(name)
    for page in pages:
        policy.frames[page] = Frame(10 if page in busy else None)
    return policy


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", ALL)
    def test_insert_contains_len(self, name):
        policy = filled(name, (1, 2))
        assert 1 in policy.frames and 2 in policy.frames
        assert len(policy.frames) == 2

    @pytest.mark.parametrize("name", ALL)
    def test_evict_removes(self, name):
        frame = Frame()
        policy = make_policy(name)
        policy.frames[1] = frame
        assert policy.evict(0.0) == (1, frame, False)
        assert not policy.frames

    @pytest.mark.parametrize("name", ALL)
    def test_evict_empty_raises(self, name):
        with pytest.raises(SimulationError):
            make_policy(name).evict(0.0)

    @pytest.mark.parametrize("name", ALL)
    def test_prefer_filter_respected(self, name):
        """Pages still in flight are passed over."""
        policy = filled(name, (1, 2, 3), busy=(1, 3))
        assert policy.evict(0.0)[0] == 2

    @pytest.mark.parametrize("name", ALL)
    def test_prefer_nothing_falls_back(self, name):
        policy = filled(name, (1,), busy=(1,))
        assert policy.evict(0.0)[0] == 1


class TestLru:
    def test_evicts_least_recent(self):
        policy = filled("lru", (1, 2, 3))
        policy.touch(1)
        assert policy.evict(0.0)[0] == 2

    def test_touch_order_chain(self):
        policy = filled("lru", (1, 2, 3))
        policy.touch(1)
        policy.touch(2)
        assert [policy.evict(0.0)[0] for _ in range(3)] == [3, 1, 2]


class TestFifo:
    def test_touch_does_not_reorder(self):
        policy = filled("fifo", (1, 2, 3))
        if policy.touch is not None:
            policy.touch(1)
        assert policy.evict(0.0)[0] == 1


class TestTouchContract:
    """Each policy hands the drive loop its cheapest touch: a bound C
    method of its own order-keeping container, or ``None`` when
    references do not affect eviction."""

    def test_lru_touch_is_move_to_end(self):
        policy = make_policy("lru")
        assert policy.touch == policy.frames.move_to_end
        assert isinstance(policy.touch, BuiltinMethodType)

    def test_clock_touch_sets_the_reference_bit(self):
        # Clock keeps the pages whose bit is clear; a touch removes one.
        policy = make_policy("clock")
        assert policy.touch == policy._cleared.discard
        assert isinstance(policy.touch, BuiltinMethodType)

    @pytest.mark.parametrize("name", ["fifo", "random"])
    def test_order_blind_policies_have_no_touch(self, name):
        assert make_policy(name).touch is None


class TestClock:
    def test_second_chance(self):
        policy = filled("clock", (1, 2, 3))
        # All referenced; first sweep clears bits, then evicts 1.
        assert policy.evict(0.0)[0] == 1

    def test_touched_page_survives_when_bits_differ(self):
        policy = filled("clock", (1, 2, 3))
        policy.evict(0.0)  # clears every bit, evicts 1; 2, 3 unreferenced
        policy.touch(3)
        # 2 (bit clear) goes before 3 (bit set by the touch).
        assert policy.evict(0.0)[0] == 2

    def test_page_taken_in_flight_comes_back_referenced(self):
        policy = filled("clock", (1, 2), busy=(1, 2))
        # Every page in flight: two laps, then the hand takes 1.
        assert policy.evict(0.0)[0] == 1
        policy.frames[4] = Frame()
        policy.frames[1] = Frame()
        # 2 is still in flight; 4 and 1 come in referenced, so the
        # first lap clears both bits and the hand takes 4 before 1.
        assert policy.evict(5.0)[0] == 4


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomPolicy(seed=42)
        b = RandomPolicy(seed=42)
        for page in range(10):
            a.frames[page] = Frame()
            b.frames[page] = Frame()
        assert [a.evict(0.0)[0] for _ in range(5)] == [
            b.evict(0.0)[0] for _ in range(5)
        ]


class TestRegistry:
    def test_names(self):
        assert set(policy_names()) == set(ALL)

    def test_unknown(self):
        with pytest.raises(UnknownSchemeError):
            make_policy("optimal")


class ReferenceModel:
    """A list-based model of each policy's preferred-victim rule."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.order: list[int] = []  # eviction order, head first
        self.referenced: set[int] = set()  # clock bits
        self.until: dict[int, int | None] = {}
        self.rng = np.random.default_rng(0)  # make_policy's seed

    def insert(self, page: int, until: int | None) -> None:
        self.order.append(page)
        self.referenced.add(page)
        self.until[page] = until

    def touch(self, page: int) -> None:
        if self.name == "lru":
            self.order.remove(page)
            self.order.append(page)
        self.referenced.add(page)

    def _settled(self, page: int, now: int) -> bool:
        until = self.until[page]
        return until is None or until < 0 or until <= now

    def evict(self, now: int) -> int:
        order = self.order
        if self.name == "clock":
            # The hand gives referenced pages a second chance and passes
            # in-flight ones; after two fruitless laps it takes its page.
            for _ in range(2 * len(order)):
                page = order.pop(0)
                if page in self.referenced:
                    self.referenced.discard(page)
                elif self._settled(page, now):
                    return page
                order.append(page)
            return order.pop(0)
        settled = [page for page in order if self._settled(page, now)]
        if self.name == "random":
            pool = settled or list(order)
            victim = pool[int(self.rng.integers(len(pool)))]
        else:
            victim = (settled or order)[0]
        order.remove(victim)
        return victim


PAGES = st.integers(min_value=0, max_value=12)
#: When a frame's transfers arrive: never in flight, empty schedule, t.
UNTIL = st.one_of(st.none(), st.integers(min_value=-1, max_value=8))


@given(
    name=st.sampled_from(ALL),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), PAGES, UNTIL),
            st.tuples(st.just("touch"), PAGES),
            st.tuples(st.just("evict"), st.integers(0, 10)),
        ),
        max_size=80,
    ),
)
@settings(max_examples=200, deadline=None)
def test_lru_matches_reference_model(name, ops):
    """Every policy (LRU and the others) evicts the page its list-based
    reference model evicts, with frames in flight until random times and
    a random eviction clock, and says whether that page was in flight."""
    policy = make_policy(name)
    model = ReferenceModel(name)
    frames = {}
    for op, *args in ops:
        if op == "insert" and args[0] not in frames:
            page, until = args
            frames[page] = Frame(until)
            policy.frames[page] = frames[page]
            model.insert(page, until)
        elif op == "touch" and args[0] in frames:
            if policy.touch is not None:
                policy.touch(args[0])
            model.touch(args[0])
        elif op == "evict" and frames:
            victim, frame, busy = policy.evict(args[0])
            assert victim == model.evict(args[0])
            assert busy == (not model._settled(victim, args[0]))
            assert frame is frames.pop(victim)
    assert list(policy.frames) == model.order


class TestAblation:
    """The replacement ablation's claims, on modula3 at 1/2 memory with
    eager 1K subpages: LRU and Clock are close, Random pays for ignoring
    recency."""

    @pytest.fixture(scope="class")
    def faults(self):
        trace = build_app_trace("modula3")
        memory = memory_pages_for(trace, 0.5)
        return {
            policy: simulate(trace, SimulationConfig(
                memory_pages=memory,
                scheme="eager",
                subpage_bytes=1024,
                replacement=policy,
            )).page_faults
            for policy in ("lru", "clock", "random")
        }

    def test_lru_no_worse_than_random(self, faults):
        assert faults["lru"] <= faults["random"]

    def test_clock_within_25_percent_of_lru(self, faults):
        assert faults["clock"] <= 1.25 * faults["lru"]
