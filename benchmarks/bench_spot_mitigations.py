"""Section 9.1, "Comparing to Spot Software Mitigations".

Paper: KPTI+retpoline cost 14.5% on LEBench and 5% on applications;
without KPTI, 6.6% and 1.2%.  Perspective provides broader coverage at
3.5% / 1.2%."""

from __future__ import annotations

from conftest import run_once

from repro.exec import run_experiment

SCHEMES = ["unsafe", "spot", "spot-nokpti", "perspective"]


def test_spot_mitigations_lebench(benchmark, emit):
    exp = run_once(benchmark,
                   lambda: run_experiment("lebench", {"schemes": SCHEMES}))
    lines = ["Spot software mitigations on LEBench (paper: 14.5% with "
             "KPTI, 6.6% without, Perspective 3.5%)"]
    for scheme in SCHEMES[1:]:
        lines.append(f"{scheme:<14} {exp.average_overhead_pct(scheme):+6.1f}%")
    emit("\n".join(lines))
    assert exp.average_overhead_pct("spot") > \
        exp.average_overhead_pct("spot-nokpti")
    assert exp.average_overhead_pct("perspective") < \
        exp.average_overhead_pct("spot")


def test_spot_mitigations_apps(benchmark, emit):
    exp = run_once(benchmark,
                   lambda: run_experiment("apps", {"schemes": SCHEMES,
                                                   "requests": 30}))
    lines = ["Spot software mitigations on applications (paper: 5% with "
             "KPTI, 1.2% without, Perspective 1.2%)"]
    for scheme in SCHEMES[1:]:
        lines.append(
            f"{scheme:<14} "
            f"{exp.average_throughput_overhead_pct(scheme):+6.1f}%")
    emit("\n".join(lines))
    assert exp.average_throughput_overhead_pct("spot") > \
        exp.average_throughput_overhead_pct("perspective")
