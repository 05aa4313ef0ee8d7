"""Figure 9.3: datacenter application throughput normalized to UNSAFE.

Paper: FENCE costs 5.7% of throughput on average; the Perspective family
costs 1.2-1.3%; key-value stores suffer the most under FENCE."""

from __future__ import annotations

from conftest import run_once

from repro.eval.figures import figure_9_3
from repro.exec import run_experiment

SCHEMES = ["unsafe", "fence", "perspective-static", "perspective",
           "perspective++"]


def test_figure_9_3_datacenter_apps(benchmark, emit):
    exp = run_once(benchmark,
                   lambda: run_experiment("apps", {"schemes": SCHEMES}))
    emit(figure_9_3(exp))
    assert 2.0 <= exp.average_throughput_overhead_pct("fence") <= 10.0
    for scheme in ("perspective-static", "perspective", "perspective++"):
        assert exp.average_throughput_overhead_pct(scheme) <= 3.0
    for app in exp.total_cycles_per_request:
        assert exp.normalized_rps(app, "fence") < 1.0
