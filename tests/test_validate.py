"""Tests for the claims registry and scorecard."""

from __future__ import annotations

import pytest

from repro.eval.validate import CLAIMS, Claim, Scorecard, claim, \
    validate_claims
from repro.exec import run_experiment


class TestClaimMechanics:
    def test_check_bounds_inclusive(self):
        c = Claim("x", "d", 10.0, 5.0, 15.0)
        assert c.check(5.0) and c.check(15.0) and c.check(10.0)
        assert not c.check(4.9) and not c.check(15.1)

    def test_lookup(self):
        assert claim("fence-lebench-avg").paper_value == 47.5
        with pytest.raises(KeyError):
            claim("nope")

    def test_registry_ids_unique(self):
        ids = [c.claim_id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_paper_values_inside_their_own_bands(self):
        for c in CLAIMS:
            assert c.low <= c.paper_value <= c.high, c.claim_id


class TestScorecard:
    def test_render_marks_failures(self):
        card = Scorecard()
        c = Claim("x", "d", 10.0, 5.0, 15.0)
        from repro.eval.validate import ClaimOutcome
        card.outcomes.append(ClaimOutcome(c, 12.0))
        card.outcomes.append(ClaimOutcome(c, 99.0))
        text = card.render()
        assert "OK" in text and "FAIL" in text
        assert not card.all_ok


class TestLiveValidation:
    """Run the cheap experiments and check their claims hold."""

    def test_surface_and_gadget_claims(self):
        surface = run_experiment("surface")
        gadgets = run_experiment("gadgets", {"apps": ["httpd", "redis"]})
        card = validate_claims(surface=surface, gadgets=gadgets)
        assert len(card.outcomes) == 3
        assert card.all_ok, "\n" + card.render()

    def test_lebench_claims(self):
        lebench = run_experiment(
            "lebench", {"schemes": ["unsafe", "fence", "perspective"]})
        card = validate_claims(lebench=lebench)
        ids = {o.claim.claim_id for o in card.outcomes}
        assert "fence-lebench-avg" in ids
        assert "perspective-lebench-avg" in ids
        assert card.all_ok, "\n" + card.render()

    def test_skipped_experiments_yield_no_outcomes(self):
        assert validate_claims().outcomes == []
