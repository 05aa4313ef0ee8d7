"""Table 8.1: attack-surface reduction with static and dynamic ISVs.

Paper: ISV-S reduces the speculatively-executable surface by 90-92%,
dynamic ISVs by 94-96% (at least 90.9% everywhere)."""

from __future__ import annotations

from conftest import run_once

from repro.eval.tables import table_8_1
from repro.exec import run_experiment


def test_table_8_1_attack_surface(benchmark, emit):
    exp = run_once(benchmark, lambda: run_experiment("surface"))
    emit(table_8_1(exp))
    for app in exp.static_isv_size:
        assert exp.reduction(app, "static") >= 0.88
        assert exp.reduction(app, "dynamic") >= 0.93
        assert exp.reduction(app, "dynamic") > exp.reduction(app, "static")
