"""Section 9.1, "Comparing to Hardware Mitigations".

Paper: on microbenchmarks DOM costs 23.1% and STT 3.7% (select-family
at 204% / 26.4%) against Perspective's 3.5%; on applications all three
land within ~2% of the baseline (98.3 / 99.6 / 98.8% of UNSAFE)."""

from __future__ import annotations

from conftest import run_once

from repro.exec import run_experiment

SCHEMES = ["unsafe", "dom", "stt", "invisispec", "perspective"]


def test_hw_mitigations_lebench(benchmark, emit):
    exp = run_once(benchmark,
                   lambda: run_experiment("lebench", {"schemes": SCHEMES}))
    lines = ["Hardware-only schemes on LEBench (paper: DOM 23.1%, STT "
             "3.7%, Perspective 3.5%; InvisiSpec is this reproduction's "
             "extra comparison point)"]
    for scheme in SCHEMES[1:]:
        lines.append(f"{scheme:<12} {exp.average_overhead_pct(scheme):+6.1f}%"
                     f"  (select {exp.normalized_latency('select', scheme):.2f}x)")
    emit("\n".join(lines))
    dom = exp.average_overhead_pct("dom")
    stt = exp.average_overhead_pct("stt")
    perspective = exp.average_overhead_pct("perspective")
    assert dom > stt
    assert dom > perspective
    assert exp.normalized_latency("select", "dom") > 2.0
    assert exp.normalized_latency("select", "perspective") < 1.2


def test_hw_mitigations_apps(benchmark, emit):
    exp = run_once(benchmark,
                   lambda: run_experiment("apps", {"schemes": SCHEMES,
                                                   "requests": 30}))
    lines = ["Hardware-only schemes on applications (paper: all within "
             "~2% of UNSAFE: 98.3 / 99.6 / 98.8%)"]
    for scheme in SCHEMES[1:]:
        mean = 1 - exp.average_throughput_overhead_pct(scheme) / 100
        lines.append(f"{scheme:<12} {100 * mean:6.1f}% of UNSAFE")
    emit("\n".join(lines))
    for scheme in SCHEMES[1:]:
        assert exp.average_throughput_overhead_pct(scheme) < 5.0
