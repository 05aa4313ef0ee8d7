"""Figure 9.2: LEBench latency normalized to the UNSAFE baseline.

Paper: FENCE averages 47.5% overhead (select/poll up to 228%);
PERSPECTIVE-STATIC / PERSPECTIVE / PERSPECTIVE++ average 4.1 / 3.6 / 3.5%."""

from __future__ import annotations

from conftest import run_once

from repro.eval.figures import figure_9_2
from repro.exec import run_experiment

SCHEMES = ["unsafe", "fence", "perspective-static", "perspective",
           "perspective++"]


def test_figure_9_2_lebench(benchmark, emit):
    exp = run_once(benchmark,
                   lambda: run_experiment("lebench", {"schemes": SCHEMES}))
    emit(figure_9_2(exp))
    assert 30.0 <= exp.average_overhead_pct("fence") <= 70.0
    for test in ("select", "poll", "epoll"):
        assert exp.normalized_latency(test, "fence") > 2.5
    for scheme in ("perspective-static", "perspective", "perspective++"):
        assert exp.average_overhead_pct(scheme) <= 8.0
