"""Evaluation harness: the experiments' cells and result objects,
sensitivity analyses, and the table/figure renderers regenerating the
paper's results.  ``repro.exec.run_experiment(name, params)`` runs an
experiment."""

from repro.eval.envs import (
    ALL_SCHEMES,
    PERF_SCHEMES,
    PerfEnv,
    build_isv_for,
    make_env,
)
from repro.eval.metrics import (
    FenceBreakdown,
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
)
from repro.eval.sensitivity import (
    SlabSensitivityResult,
    UnknownAllocationsResult,
)
from repro.eval.export import export_all
from repro.eval.tables import security_matrix_text_from_cells
from repro.eval.sweeps import SweepResult
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
    "EvaluationArtifacts",
    "FenceBreakdown",
    "GadgetExperiment",
    "KasperExperiment",
    "LEBenchExperiment",
    "PERF_SCHEMES",
    "PerfEnv",
    "SlabSensitivityResult",
    "SurfaceExperiment",
    "SweepResult",
    "export_all",
    "UnknownAllocationsResult",
    "build_isv_for",
    "geomean",
    "make_env",
    "normalized",
    "overhead_pct",
    "run_full_evaluation",
    "render_campaign_report",
    "security_matrix_text_from_cells",
]
