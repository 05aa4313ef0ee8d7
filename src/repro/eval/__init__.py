"""Evaluation harness: experiment runners, sensitivity analyses, and the
table/figure renderers regenerating the paper's results."""

from repro.eval.envs import (
    ALL_SCHEMES,
    COMPARISON_SCHEMES,
    PERF_SCHEMES,
    PerfEnv,
    build_isv_for,
    make_env,
)
from repro.eval.metrics import (
    FenceBreakdown,
    SchemeSummary,
    geomean,
    normalized,
    overhead_pct,
)
from repro.eval.report import (
    EvaluationArtifacts,
    render_campaign_report,
    run_full_evaluation,
)
from repro.eval.runner import (
    AppsExperiment,
    BreakdownExperiment,
    GadgetExperiment,
    KasperExperiment,
    LEBenchExperiment,
    SurfaceExperiment,
    run_apps_experiment,
    run_breakdown_experiment,
    run_gadget_experiment,
    run_kasper_experiment,
    run_lebench_experiment,
    run_surface_experiment,
)
from repro.eval.sensitivity import (
    SlabSensitivityResult,
    UnknownAllocationsResult,
    run_slab_sensitivity,
    run_unknown_allocations,
)
from repro.eval.export import export_all
from repro.eval.tables import security_matrix_text_from_cells
from repro.eval.sweeps import (
    SweepResult,
    sweep_branch_resolve_latency,
    sweep_rob_entries,
)
from repro.eval.validate import (
    CLAIMS,
    Claim,
    ClaimOutcome,
    Scorecard,
    validate_claims,
)

__all__ = [
    "ALL_SCHEMES",
    "CLAIMS",
    "Claim",
    "ClaimOutcome",
    "Scorecard",
    "validate_claims",
    "AppsExperiment",
    "BreakdownExperiment",
    "COMPARISON_SCHEMES",
    "EvaluationArtifacts",
    "FenceBreakdown",
    "GadgetExperiment",
    "KasperExperiment",
    "LEBenchExperiment",
    "PERF_SCHEMES",
    "PerfEnv",
    "SchemeSummary",
    "SlabSensitivityResult",
    "SurfaceExperiment",
    "SweepResult",
    "export_all",
    "sweep_branch_resolve_latency",
    "sweep_rob_entries",
    "UnknownAllocationsResult",
    "build_isv_for",
    "geomean",
    "make_env",
    "normalized",
    "overhead_pct",
    "run_apps_experiment",
    "run_breakdown_experiment",
    "run_full_evaluation",
    "run_gadget_experiment",
    "run_kasper_experiment",
    "run_lebench_experiment",
    "render_campaign_report",
    "run_slab_sensitivity",
    "run_surface_experiment",
    "run_unknown_allocations",
    "security_matrix_text_from_cells",
]
