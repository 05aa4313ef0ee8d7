"""Figure 9.1: speedup of Kasper's gadget discovery rate when the search
space is bounded to the ISVs.

Paper: 1.14x-2.23x per application, 1.57x on average."""

from __future__ import annotations

from conftest import run_once

from repro.eval.figures import figure_9_1
from repro.exec import run_experiment


def test_figure_9_1_kasper_speedup(benchmark, emit):
    exp = run_once(benchmark, lambda: run_experiment("kasper"))
    emit(figure_9_1(exp))
    for app, speedup in exp.speedups.items():
        assert speedup > 1.0, (app, speedup)
    assert 1.2 <= exp.average <= 2.3
