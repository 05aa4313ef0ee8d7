"""ISV generation toolchain: binary analysis, kernel call graphs, and
static/dynamic view construction."""

from repro.analysis.binary import (
    APPLICATIONS,
    ApplicationBinary,
    extract_syscalls,
)
from repro.analysis.callgraph import (
    ground_truth_graph,
    reachable_from,
    static_call_graph,
)
from repro.analysis.profiles import (
    ISVProfile,
    ProfileError,
    image_fingerprint,
)
from repro.analysis.dynamic_isv import (
    generate_dynamic_isv,
    profile_workload,
    seccomp_filter_from_trace,
)
from repro.analysis.static_isv import generate_static_isv, static_isv_functions

__all__ = [
    "APPLICATIONS",
    "ApplicationBinary",
    "ISVProfile",
    "ProfileError",
    "image_fingerprint",
    "extract_syscalls",
    "generate_dynamic_isv",
    "generate_static_isv",
    "ground_truth_graph",
    "profile_workload",
    "reachable_from",
    "seccomp_filter_from_trace",
    "static_call_graph",
    "static_isv_functions",
]
