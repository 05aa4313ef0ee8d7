"""The scorecard: every headline claim of the paper checked in one run.

Runs the full experiment set and validates each quantitative claim against
its accepted band (see ``repro.eval.validate``) -- the regression gate for
the whole reproduction.
"""

from __future__ import annotations

from conftest import run_once

from repro.eval.validate import validate_claims
from repro.exec import run_experiment

SCHEMES = ["unsafe", "fence", "dom", "stt", "spot", "perspective"]


def test_paper_claims_scorecard(benchmark, emit):
    def score():
        lebench = run_experiment("lebench", {"schemes": SCHEMES})
        apps = run_experiment("apps", {"schemes": ["unsafe", "fence",
                                                   "perspective"]})
        surface = run_experiment("surface")
        gadgets = run_experiment("gadgets")
        kasper = run_experiment("kasper", {"n_seeds": 16})
        return validate_claims(lebench=lebench, apps=apps,
                               surface=surface, gadgets=gadgets,
                               kasper=kasper)

    card = run_once(benchmark, score)
    emit("Paper-claims scorecard\n" + card.render())
    assert len(card.outcomes) == 12
    assert card.all_ok, "\n" + card.render()
