"""Table 8.2: MDS / Port / Cache gadget reduction per ISV flavor.

Paper: ISV-S blocks 78-87% of Kasper's gadgets, dynamic ISVs 91-93%, and
scanner-hardened ISV++ blocks 100% of identified gadgets."""

from __future__ import annotations

from conftest import run_once

from repro.eval.tables import table_8_2
from repro.exec import run_experiment


def test_table_8_2_gadget_reduction(benchmark, emit):
    exp = run_once(benchmark, lambda: run_experiment("gadgets"))
    emit(table_8_2(exp))
    for app, rows in exp.blocked.items():
        for cls in ("mds", "port", "cache"):
            assert rows["ISV-S"][cls] >= 0.60, (app, cls)
            assert rows["ISV"][cls] >= rows["ISV-S"][cls] - 0.02
            assert rows["ISV++"][cls] == 1.0, (app, cls)
