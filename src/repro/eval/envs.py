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
from repro.analysis.flavors import FLAVORS, flavor_isv
from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.pipeline import SpeculationPolicy
from repro.defenses.registry import arm
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process
from repro.workloads.apps import APP_SPECS, AppWorkload
from repro.workloads.driver import Driver, RunStats
from repro.workloads.lebench import exercise_all

PERF_SCHEMES = ("unsafe", "fence", "perspective-static", "perspective",
                "perspective++")
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


def drive_workload(kernel: MiniKernel, proc: Process, workload_name: str,
                   *, passes: int = 1, requests: int = 0,
                   rare_every: int = RARE_EVERY,
                   ) -> tuple[RunStats, RunStats]:
    """Drive one workload on ``proc``: ``passes`` rounds of LEBench's
    :func:`exercise_all`, or an application server's setup followed by
    ``requests`` served requests.

    Returns ``(driven, served)`` driver stats: every syscall driven, and
    the served requests alone (the window Table 10.1 reports).  LEBench
    has no server setup, so for it the two are one object.
    """
    if workload_name == "lebench":
        driver = Driver(kernel, proc, rare_every=rare_every)
        for _ in range(passes):
            exercise_all(driver)
        return driver.stats, driver.stats
    app = AppWorkload(kernel, proc, APP_SPECS[workload_name],
                      rare_every=rare_every)
    # serve() starts a fresh RunStats; the setup window's object lives on.
    driven = app.driver.stats
    app.serve(requests)
    driven.merge(app.driver.stats)
    return driven, app.driver.stats


def _profile_functions(kernel: MiniKernel, proc: Process,
                       workload_name: str) -> frozenset[str]:
    """Offline profiling pass: trace the workload's kernel functions.

    Rare paths are never triggered during profiling -- the source of the
    residual dynamic-ISV fences measured in Section 9.2.
    """
    kernel.tracer.start()
    drive_workload(kernel, proc, workload_name, requests=6, rare_every=0)
    kernel.tracer.stop()
    return kernel.tracer.traced_functions(proc.cgroup.cg_id)


def build_isv_for(kernel: MiniKernel, proc: Process, workload_name: str,
                  flavor: str) -> InstructionSpeculationView:
    """Generate the ISV for a scheme flavor: static, dynamic, or ++.
    The traced flavors profile the workload first."""
    traced = (None if flavor == "static"
              else _profile_functions(kernel, proc, workload_name))
    return flavor_isv(kernel.image, proc.cgroup.cg_id, flavor,
                      binary=APPLICATIONS[workload_name], traced=traced)


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
    traced = _profile_functions(kernel, proc, workload_name)
    flavor = FLAVORS.get(scheme)
    isv = None
    if flavor is not None:
        isv = flavor_isv(kernel.image, proc.cgroup.cg_id, flavor,
                         binary=APPLICATIONS[workload_name], traced=traced)
    policy = arm(kernel, scheme, () if isv is None else (isv,))
    return PerfEnv(workload_name=workload_name, scheme=scheme,
                   kernel=kernel, proc=proc, policy=policy,
                   framework=None if isv is None else policy.framework,
                   isv=isv)
