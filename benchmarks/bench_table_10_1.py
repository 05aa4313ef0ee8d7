"""Table 10.1: the ISV-vs-DSV fence breakdown.

Paper: the static-ISV configuration attributes ~20% of fences to ISVs and
~80% to DSVs; dynamic ISVs shift further toward DSVs; rates average 9 ISV
and 37 DSV fences per kiloinstruction."""

from __future__ import annotations

from conftest import run_once

from repro.eval.tables import table_10_1
from repro.exec import run_experiment


def test_table_10_1_fence_breakdown(benchmark, emit):
    exp = run_once(benchmark, lambda: run_experiment("breakdown"))
    emit(table_10_1(exp))
    for workload, per_scheme in exp.breakdowns.items():
        # DSV fences dominate in every configuration (the ISV++ rows run
        # somewhat hotter here than in the paper because the scaled gadget
        # population overlaps hot functions more; see EXPERIMENTS.md).
        for scheme, fb in per_scheme.items():
            assert fb.dsv_share > 0.5, (workload, scheme)
        assert per_scheme["perspective-static"].isv_share >= \
            per_scheme["perspective"].isv_share
