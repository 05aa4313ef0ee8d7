"""The paper's evaluation as one table of report sections.

``run_full_evaluation`` (``python -m repro``) runs and renders every
section of :data:`SECTIONS`, ``render_campaign_report`` renders them from
a campaign's journal, and :class:`repro.reliability.campaign.CampaignConfig`
takes its default schedule and base parameters from the same table.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.eval import figures, tables
from repro.eval.envs import ALL_SCHEMES


@dataclass
class EvaluationArtifacts:
    """Rendered output of the full evaluation."""

    sections: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        out = io.StringIO()
        for title, body in self.sections.items():
            out.write(f"\n{'=' * 78}\n{title}\n{'=' * 78}\n{body}\n")
        return out.getvalue()


@dataclass(frozen=True)
class Section:
    """One report section: ``render()`` for a static table, else
    ``render(result)`` over its grid's result at ``full`` params (the
    paper's configuration) or ``fast`` ones (the smoke configuration).
    Params override the grid defaults and are JSON values, since a
    campaign journals them in its header."""

    title: str
    render: Callable[..., str]
    grid: str | None = None
    full: dict[str, Any] = field(default_factory=dict)
    fast: dict[str, Any] = field(default_factory=dict)

    def params(self, fast: bool) -> dict[str, Any]:
        return self.fast if fast else self.full


#: Every section of the evaluation, in report order.
SECTIONS: tuple[Section, ...] = (
    Section("Table 4.1 (CVE taxonomy)", tables.table_4_1),
    Section("Table 7.1 (simulation parameters)", tables.table_7_1),
    Section("Table 8.1 (attack surface)", tables.table_8_1, "surface",
            fast={"apps": ["lebench", "httpd"]}),
    Section("Table 8.2 (gadget reduction)", tables.table_8_2, "gadgets",
            fast={"apps": ["lebench", "redis"]}),
    Section("Security PoC matrix (Sections 8.1-8.2)",
            tables.security_matrix_text_from_cells, "security",
            full={"schemes": ["unsafe", "spot", "perspective"]},
            fast={"attacks": ["spectre-v1-active", "spectre-v2-passive"],
                  "schemes": ["unsafe", "perspective"]}),
    Section("Figure 9.1 (Kasper speedup)", figures.figure_9_1, "kasper",
            fast={"apps": ["httpd"], "n_seeds": 4}),
    Section("Figure 9.2 (LEBench)", figures.figure_9_2, "lebench",
            full={"schemes": list(ALL_SCHEMES)},
            fast={"schemes": ["unsafe", "fence", "perspective"]}),
    Section("Figure 9.3 (datacenter apps)", figures.figure_9_3, "apps",
            full={"schemes": list(ALL_SCHEMES)},
            fast={"schemes": ["unsafe", "fence", "perspective"],
                  "apps": ["httpd"], "requests": 16}),
    Section("Table 9.1 (hardware characterization)", tables.table_9_1),
    Section("Table 10.1 (fence breakdown)", tables.table_10_1, "breakdown",
            fast={"workloads": ["lebench"], "schemes": ["perspective"],
                  "requests": 12}),
    Section("Sensitivity: unknown allocations", tables.unknown_allocations,
            "unknown-allocations"),
    Section("Sensitivity: secure slab allocator", tables.slab_sensitivity,
            "slab-sensitivity", fast={"requests": 24}),
)


def run_full_evaluation(fast: bool = False) -> EvaluationArtifacts:
    """Regenerate every section of :data:`SECTIONS`.

    Each grid runs in this process with the cache off
    (:func:`~repro.exec.engine.run_experiment`), at its section's
    ``full`` params, or its ``fast`` params when ``fast`` is set.
    """
    from repro.exec.engine import run_experiment
    artifacts = EvaluationArtifacts()
    for section in SECTIONS:
        if section.grid is None:
            body = section.render()
        else:
            body = section.render(run_experiment(section.grid,
                                                 section.params(fast)))
        artifacts.sections[section.title] = body
    return artifacts


def render_campaign_report(state) -> EvaluationArtifacts:
    """Render the sections a (possibly partial) campaign produced.

    ``state`` is a :class:`repro.reliability.campaign.CampaignState`.
    Static tables always render, and a grid's section renders when the
    campaign ran that grid.  Experiments that failed after retry
    exhaustion render as ``—`` placeholders, and a failure summary
    section reports what went wrong instead of the whole report aborting.
    """
    artifacts = EvaluationArtifacts()
    for section in SECTIONS:
        name = section.grid
        if name is None:
            body = section.render()
        elif name in state.payloads:
            body = section.render(state.result(name))
        elif name in state.failures:
            body = tables.unavailable(
                section.title, f"experiment {name!r} failed after "
                f"{state.attempts.get(name, '?')} attempt(s)")
        else:
            continue
        artifacts.sections[section.title] = body
    if state.failures:
        lines = ["Failed experiments (rendered above as "
                 f"{tables.MISSING}):"]
        for name, error in sorted(state.failures.items()):
            lines.append(f"  {name:<12} attempts="
                         f"{state.attempts.get(name, '?')}  {error}")
    else:
        lines = ["All campaign experiments completed."]
    artifacts.sections["Campaign failure summary"] = "\n".join(lines)
    return artifacts
