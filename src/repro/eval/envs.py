"""Measurement environments: kernel + workload + defense scheme.

Implements Chapter 7's configurations:

* ``unsafe``              -- unprotected baseline
* ``fence``               -- delay all speculative loads
* ``dom`` / ``stt``       -- hardware-only comparison points (Section 9.1)
* ``spot`` / ``spot-nokpti`` -- deployed Linux mitigations
* ``perspective-static``  -- FENCE hardware + Perspective with static ISVs
* ``perspective``         -- same with dynamic (traced) ISVs
* ``perspective++``       -- dynamic ISVs hardened with scanner findings

Perspective environments follow the paper's deployment flow: the workload
is profiled offline (tracing, no rare paths), the ISV is generated and
installed at startup, and only then is the enforcement policy armed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.binary import APPLICATIONS
from repro.analysis.static_isv import generate_static_isv
from repro.core.audit import harden_isv
from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.pipeline import SpeculationPolicy
from repro.defenses.registry import build_policy
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process
from repro.scanner.kasper import scan
from repro.workloads.apps import APP_SPECS, AppWorkload
from repro.workloads.driver import Driver
from repro.workloads.lebench import exercise_all

PERF_SCHEMES = ("unsafe", "fence", "perspective-static", "perspective",
                "perspective++")
COMPARISON_SCHEMES = ("unsafe", "dom", "stt", "invisispec", "spot",
                      "spot-nokpti")
ALL_SCHEMES = ("unsafe", "fence", "dom", "stt", "invisispec", "safespec",
               "context", "spot", "spot-nokpti", "perspective-static",
               "perspective", "perspective++")

#: Rare-path injection period during measurement runs (profiling uses 0).
RARE_EVERY = 12


@dataclass
class PerfEnv:
    """One armed measurement environment."""

    workload_name: str
    scheme: str
    kernel: MiniKernel
    proc: Process
    policy: SpeculationPolicy
    framework: Perspective | None = None
    isv: InstructionSpeculationView | None = None


def _profile_functions(kernel: MiniKernel, proc: Process,
                       workload_name: str) -> frozenset[str]:
    """Offline profiling pass: trace the workload's kernel functions.

    Rare paths are never triggered during profiling -- the source of the
    residual dynamic-ISV fences measured in Section 9.2.
    """
    kernel.tracer.start()
    if workload_name == "lebench":
        exercise_all(Driver(kernel, proc, rare_every=0))
    else:
        workload = AppWorkload(kernel, proc, APP_SPECS[workload_name],
                               rare_every=0)
        workload.serve(6, measure=False)
    kernel.tracer.stop()
    return kernel.tracer.traced_functions(proc.cgroup.cg_id)


def build_isv_for(kernel: MiniKernel, proc: Process, workload_name: str,
                  flavor: str) -> InstructionSpeculationView:
    """Generate the ISV for a scheme flavor: static, dynamic, or ++."""
    ctx = proc.cgroup.cg_id
    if flavor == "static":
        binary = APPLICATIONS[workload_name]
        return generate_static_isv(kernel.image, binary, ctx)
    functions = _profile_functions(kernel, proc, workload_name)
    isv = InstructionSpeculationView(ctx, functions, kernel.image.layout,
                                     source="dynamic")
    if flavor == "dynamic":
        return isv
    if flavor == "++":
        report = scan(kernel.image, scope=isv.functions)
        return harden_isv(isv, report.functions()).hardened
    raise ValueError(f"unknown ISV flavor {flavor!r}")


_PERSPECTIVE_FLAVORS = {
    "perspective-static": "static",
    "perspective": "dynamic",
    "perspective++": "++",
}


def perspective_flavor(scheme: str) -> str | None:
    """ISV flavor for a Perspective scheme name, else ``None``."""
    return _PERSPECTIVE_FLAVORS.get(scheme)


def make_env(workload_name: str, scheme: str, *,
             image: "KernelImage | None" = None) -> PerfEnv:
    """Boot a kernel, create the workload process, arm the scheme.

    Every scheme runs the same offline profiling pass first (Perspective
    needs it to build views; the others discard it), so all measurement
    environments start from identical microarchitectural history.

    ``image`` lets a caller supply a prebuilt image; the default is the
    process-wide :func:`shared_image`, so results are identical either
    way.
    """
    kernel = MiniKernel(image=shared_image() if image is None else image)
    proc = kernel.create_process(workload_name)
    framework = None
    isv = None
    if scheme in _PERSPECTIVE_FLAVORS:
        isv = build_isv_for(kernel, proc, workload_name,
                            _PERSPECTIVE_FLAVORS[scheme])
        if _PERSPECTIVE_FLAVORS[scheme] == "static":
            _profile_functions(kernel, proc, workload_name)  # parity only
        framework = Perspective(kernel)
        framework.install_isv(isv)
        policy: SpeculationPolicy = build_policy(scheme, framework)
    else:
        _profile_functions(kernel, proc, workload_name)  # history parity
        policy = build_policy(scheme, kernel=kernel)
    kernel.pipeline.set_policy(policy)
    return PerfEnv(workload_name=workload_name, scheme=scheme,
                   kernel=kernel, proc=proc, policy=policy,
                   framework=framework, isv=isv)
