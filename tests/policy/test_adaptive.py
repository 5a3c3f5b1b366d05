"""The adaptive meta-scheme and its per-run controller."""

import pytest

from repro.core.schemes import SubpagePipelining, make_scheme
from repro.errors import ConfigError
from repro.policy.adaptive import AdaptiveScheme
from repro.policy.predictors import StrideMajorityPredictor
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate

from tests.conftest import make_trace, page_addr, place


class ColdStride(StrideMajorityPredictor):
    """The stride predictor with no trust in a page it has not seen
    move: a cold fault falls to the bottom of the ladder."""

    COLD_CONFIDENCE = 0.0


class KindLog(StrideMajorityPredictor):
    """The stride predictor, logging every observation's kind."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[str] = []
        ring = self.record

        def record(page, subpage, kind):
            self.kinds.append(kind)
            ring(page, subpage, kind)

        self.record = record


class TestTransparentMode:
    def test_static_default_is_transparent(self):
        scheme = AdaptiveScheme()
        assert scheme.transparent
        assert scheme.name == "pipelined"
        assert scheme.label(1024, 8192) == "pl_1024"

    def test_plans_match_pipelined_exactly(self):
        adaptive = AdaptiveScheme(predictor="static")
        plain = SubpagePipelining()
        adaptive.controller.begin_run(subpage_bytes=1024)
        for sp in (0, 2, 7):
            assert place(adaptive, subpage=sp) == place(plain, subpage=sp)

    def test_finish_suppresses_stats(self):
        scheme = AdaptiveScheme()
        scheme.controller.begin_run(subpage_bytes=1024)
        place(scheme)
        assert scheme.controller.finish() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"predictor": "stride"},
            {"switch_schemes": True},
            {"max_depth": 6},
        ],
    )
    def test_any_adaptive_knob_leaves_transparency(self, kwargs):
        scheme = AdaptiveScheme(**kwargs)
        assert not scheme.transparent
        assert scheme.name == "adaptive"
        assert scheme.label(1024, 8192) == "ad_1024"

    def test_max_depth_equal_to_pipeline_count_stays_transparent(self):
        scheme = AdaptiveScheme(max_depth=2)
        assert scheme.inner.pipeline_count == 2
        assert scheme.transparent


class TestDepthLadder:
    def test_full_confidence_gets_cap(self):
        scheme = AdaptiveScheme(predictor="stride", max_depth=6)
        assert scheme.depth_for(1.0) == 6
        assert scheme.depth_for(0.75) == 6

    def test_below_min_gets_zero(self):
        scheme = AdaptiveScheme(predictor="stride", max_depth=6)
        assert scheme.depth_for(0.0) == 0
        assert scheme.depth_for(0.249) == 0

    def test_interpolates_between_knees(self):
        scheme = AdaptiveScheme(predictor="stride", max_depth=6)
        mid = scheme.depth_for(0.5)
        assert 1 <= mid < 6
        assert scheme.depth_for(0.26) <= mid

    def test_monotone(self):
        scheme = AdaptiveScheme(predictor="stride", max_depth=6)
        depths = [scheme.depth_for(c / 20) for c in range(21)]
        assert depths == sorted(depths)


class TestPlanning:
    def test_predicted_order_pipelines_first(self):
        # Teach the predictor a unanimous +2 stride on page 5, then
        # fault at 2: predicted next subpages (4, 6) must be the
        # pipelined ones.
        scheme = AdaptiveScheme(predictor="stride", max_depth=2)
        scheme.controller.begin_run(subpage_bytes=1024)
        for sp in (0, 2, 4):
            scheme.controller.observe(5, sp, "touch")
        plan = place(scheme, subpage=2, page=5)
        wire = 1024 / 8192
        assert plan.arrivals_ms[4] == pytest.approx(10.5 + wire)
        assert plan.arrivals_ms[6] == pytest.approx(10.5 + 2 * wire)
        assert set(plan.arrivals_ms) == set(range(8))

    def test_zero_depth_degenerates_to_eager_shape(self):
        # Cold page under a strict ladder: no pipelined messages, the
        # rest arrives in one trailing message.
        scheme = AdaptiveScheme(predictor=ColdStride(), max_depth=6)
        scheme.controller.begin_run(subpage_bytes=1024)
        plan = place(scheme, subpage=2)
        others = {a for i, a in plan.arrivals_ms.items() if i != 2}
        assert len(others) == 1  # one trailing arrival time

    def test_lazy_fallback_when_switching(self):
        scheme = AdaptiveScheme(predictor=ColdStride(), switch_schemes=True)
        scheme.controller.begin_run(subpage_bytes=1024)
        plan = place(scheme, subpage=3)
        assert set(plan.arrivals_ms) == {3}
        stats = scheme.controller.finish()
        assert stats["lazy_fallbacks"] == 1

    def test_fullpage_guard(self):
        scheme = AdaptiveScheme(predictor="stride")
        scheme.controller.begin_run(subpage_bytes=8192)
        plan = place(scheme, subpage=0, subpage_bytes=8192)
        assert plan.resume_ms == pytest.approx(12.0)


class TestScoreboard:
    def make(self):
        scheme = AdaptiveScheme(predictor="stride", max_depth=2)
        scheme.controller.begin_run(subpage_bytes=1024)
        return scheme

    def test_hits_and_misses(self):
        scheme = self.make()
        c = scheme.controller
        for sp in (0, 2, 4):
            c.observe(5, sp, "touch")
        place(scheme, subpage=2, page=5)  # predicts 4, 6
        c.observe(5, 4, "touch")  # hit
        c.observe(5, 1, "touch")  # miss
        stats = c.finish()
        assert stats["pred_hits"] == 1
        assert stats["pred_misses"] == 1
        assert stats["pred_hit_rate"] == 0.5

    def test_wasted_bytes_charged_on_retire(self):
        scheme = self.make()
        c = scheme.controller
        for sp in (0, 2, 4):
            c.observe(5, sp, "touch")
        place(scheme, subpage=2, page=5)  # speculates on 4, 6
        c.observe(5, 4, "touch")  # 6 never touched
        stats = c.finish()
        assert stats["wasted_prefetch_bytes"] == 1024.0

    def test_faulted_subpage_not_scored(self):
        scheme = self.make()
        c = scheme.controller
        place(scheme, subpage=2, page=5)
        c.observe(5, 2, "touch")  # the initially shipped subpage
        stats = c.finish()
        assert stats["pred_hits"] == 0
        assert stats["pred_misses"] == 0

    def test_coverage(self):
        scheme = self.make()
        place(scheme, subpage=2, page=5)
        place(scheme, subpage=0, page=6)
        stats = scheme.controller.finish()
        assert stats["faults"] == 2
        assert stats["coverage"] == 1.0

    def test_begin_run_resets_everything(self):
        scheme = self.make()
        c = scheme.controller
        place(scheme, subpage=2, page=5)
        c.begin_run(subpage_bytes=1024)
        stats = c.finish()
        assert stats["faults"] == 0
        assert stats["wasted_prefetch_bytes"] == 0.0
        assert len(scheme.predictor.history) == 0


class TestFeeds:
    def test_fault_feed_stays_fast_compatible(self):
        """One feed: the policy sees the page faults and the touches of
        incomplete pages, never a hit from the drive loop."""
        predictor = KindLog()
        trace = make_trace(
            [page_addr(page, 1024 * sp) for page in range(4)
             for sp in (0, 1, 2, 0, 1, 2)] * 3
        )
        result = simulate(trace, SimulationConfig(
            memory_pages=2,
            scheme="adaptive",
            scheme_kwargs={"predictor": predictor},
            subpage_bytes=1024,
            congestion=False,
        ))
        assert set(predictor.kinds) == {"fault", "touch"}
        assert predictor.kinds.count("fault") == result.page_faults


class TestValidation:
    def test_bad_max_depth(self):
        with pytest.raises(ConfigError):
            AdaptiveScheme(max_depth=0)

    def test_registry_build(self):
        scheme = make_scheme(
            "adaptive", predictor="stride", max_depth=6
        )
        assert isinstance(scheme, AdaptiveScheme)
        assert scheme.max_depth == 6
