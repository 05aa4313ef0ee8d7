"""Text renderers for the paper's figures (ASCII bar charts).

Figures 9.1-9.3 are bar charts; the renderers print one bar per
(workload, scheme) so the series' shape can be compared with the paper.
"""

from __future__ import annotations

from repro.eval.runner import (
    AppsExperiment,
    KasperExperiment,
    LEBenchExperiment,
)


#: Labels that fit a 10-character column for the schemes whose names
#: would all truncate to ``perspectiv``.
_LABELS = {"perspective-static": "persp-S", "perspective": "persp",
           "perspective++": "persp++"}


def _bar(value: float, scale: float = 20.0, cap: float = 4.0) -> str:
    clipped = min(value, cap)
    return "#" * max(1, int(round(clipped * scale / cap)))


def figure_9_1(exp: KasperExperiment) -> str:
    """Speedup of Kasper's gadget discovery rate (gadgets/hour)."""
    lines = ["Figure 9.1: Kasper gadget-discovery-rate speedup with ISVs",
             "-" * 70]
    for app, speedup in exp.speedups.items():
        lines.append(f"{app:<10} {speedup:>5.2f}x  {_bar(speedup)}")
    lines.append(f"{'average':<10} {exp.average:>5.2f}x")
    lines.append("(paper: 1.14x-2.23x per app, 1.57x on average)")
    return "\n".join(lines)


def figure_9_2(exp: LEBenchExperiment) -> str:
    """LEBench normalized latency per scheme."""
    schemes = [s for s in exp.schemes if s != "unsafe"]
    lines = ["Figure 9.2: LEBench latency normalized to UNSAFE",
             "-" * 70,
             f"{'test':<16} "
             + " ".join(f"{_LABELS.get(s, s)[:10]:>10}" for s in schemes)]
    for test in exp.cycles["unsafe"]:
        cells = " ".join(f"{exp.normalized_latency(test, s):>10.2f}"
                         for s in schemes)
        lines.append(f"{test:<16} {cells}")
    lines.append(f"{'average':<16} "
                 + " ".join(f"{1 + exp.average_overhead_pct(s) / 100:>10.2f}"
                            for s in schemes))
    lines.append("(paper averages: FENCE 1.475, PERSPECTIVE-STATIC 1.041, "
                 "PERSPECTIVE 1.036, PERSPECTIVE++ 1.035; "
                 "select/poll up to 3.28 under FENCE)")
    return "\n".join(lines)


def figure_9_3(exp: AppsExperiment) -> str:
    """Datacenter application throughput normalized to UNSAFE."""
    schemes = [s for s in exp.schemes if s != "unsafe"]
    apps = list(exp.total_cycles_per_request)
    lines = ["Figure 9.3: Requests/second normalized to UNSAFE",
             "-" * 70,
             f"{'app':<12} {'UNSAFE rps':>12} "
             + " ".join(f"{_LABELS.get(s, s)[:10]:>10}" for s in schemes)]
    for app in apps:
        cells = " ".join(f"{exp.normalized_rps(app, s):>10.3f}"
                         for s in schemes)
        lines.append(f"{app:<12} {exp.rps(app, 'unsafe'):>12.0f} {cells}")
    lines.append(f"{'average ovh':<25} "
                 + " ".join(
                     f"{exp.average_throughput_overhead_pct(s):>9.1f}%"
                     for s in schemes))
    lines.append("(paper: FENCE -5.7% average; Perspective family "
                 "-1.2% to -1.3%; baselines 11.5K/18K/55K/40.7K rps)")
    return "\n".join(lines)
