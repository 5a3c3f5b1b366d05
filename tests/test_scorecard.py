"""The paper-vs-measured scorecard."""

import pytest

from repro.experiments import scorecard


@pytest.fixture(scope="module")
def card():
    return scorecard.run()


class TestScorecard:
    def test_every_claim_within_band(self, card):
        failing = [
            f"{c.claim_id}: measured {c.measured_str}, "
            f"band [{c.lo}, {c.hi}]"
            for c in card.failing()
        ]
        assert card.all_ok, failing

    def test_has_meaningful_coverage(self, card):
        assert card.total >= 10
        ids = {c.claim_id for c in card.claims}
        # The headline claims from abstract, Fig 3, Fig 7-9 are present.
        assert {"latency-1k", "m3-half-1k", "fig9-eager-max",
                "fig8-pw-cut", "fig7-plus-one"} <= ids
        # The Section 3.2 validation: prototype mode agrees with TLB mode.
        assert {"proto-optimal-size", "proto-improvement-gap",
                "proto-emulation-cost"} <= ids

    def test_render_mentions_every_claim(self, card):
        text = scorecard.render(card)
        for claim in card.claims:
            assert claim.claim_id in text
        assert f"{card.passed}/{card.total}" in text

    def test_claim_formatting(self):
        claim = scorecard.Claim(
            "x", "s", "p", measured=0.254, lo=0.0, hi=1.0, unit="%"
        )
        assert claim.measured_str == "25.4%"
        assert claim.ok
        speedy = scorecard.Claim(
            "y", "s", "p", measured=2.239, lo=0.0, hi=1.0, unit="x"
        )
        assert speedy.measured_str == "2.24x"
        assert not speedy.ok
