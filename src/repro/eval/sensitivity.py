"""Sensitivity analyses of Section 9.2.

* **Unknown allocations**: rerun LEBench with unknown memory allowed to
  speculate, isolating the share of Perspective's overhead that
  conservative blocking of no-DSV memory causes (paper: 1.5 points on
  LEBench, marginal on applications).
* **Memory fragmentation**: the secure slab allocator's per-cgroup page
  lists cost some utilization (paper: 0.91% overhead on the slabtop
  active/total ratio).
* **Domain reassignment**: how often slab frees empty a page and return it
  to the buddy allocator (paper: redis 0.23% of frees / 96 per second;
  httpd, nginx, memcached at 0.01% / 0.003% and single digits per second).

Each analysis is one ``unknown-allocations``/``slab-sensitivity`` grid of
:mod:`repro.exec.grids`; the ``*_cell`` functions below are their
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.defenses.perspective import PerspectivePolicy
from repro.eval.envs import drive_workload, make_env
from repro.eval.metrics import geomean
from repro.kernel.image import shared_image
from repro.kernel.kernel import KernelConfig, MiniKernel
from repro.workloads.lebench import run_lebench

CORE_HZ = 2.0e9


@dataclass
class UnknownAllocationsResult:
    """LEBench overhead with vs without unknown-allocation blocking."""

    overhead_full_pct: float
    overhead_unknown_allowed_pct: float

    @property
    def unknown_contribution_pct(self) -> float:
        """Overhead points attributable to unknown allocations."""
        return self.overhead_full_pct - self.overhead_unknown_allowed_pct


def unknown_allocations_cell(scheme: str, rare_every: int,
                             treat_unknown: bool,
                             ) -> dict[str, dict[str, float]]:
    """One cell of the ``unknown-allocations`` grid: LEBench ``cycles``
    under ``scheme``, optionally with unknown memory allowed to
    speculate."""
    env = make_env("lebench", scheme)
    if treat_unknown:
        policy = env.policy
        assert isinstance(policy, PerspectivePolicy)
        policy.treat_unknown_as_owned = True
    return {"cycles": run_lebench(env.kernel, env.proc,
                                  rare_every=rare_every)}


def unknown_overhead_pct(cycles: dict[str, float],
                         baseline: dict[str, float]) -> float:
    """Geomean LEBench overhead of ``cycles`` vs ``baseline``, percent."""
    mean = geomean([cycles[t] / baseline[t] for t in baseline])
    return 100.0 * (mean - 1.0)


@dataclass
class SlabSensitivityResult:
    """Fragmentation and domain-reassignment figures per application."""

    #: app -> slab utilization under the secure allocator.
    secure_utilization: dict[str, float] = field(default_factory=dict)
    #: app -> slab utilization under the baseline allocator.
    baseline_utilization: dict[str, float] = field(default_factory=dict)
    #: app -> fraction of object frees returning a page to the buddy.
    page_return_ratio: dict[str, float] = field(default_factory=dict)
    #: app -> page returns per simulated second.
    reassignments_per_second: dict[str, float] = field(default_factory=dict)
    #: app -> cache lines holding objects of multiple owners (baseline
    #: allocator only; always zero under the secure allocator).
    baseline_collocations: dict[str, int] = field(default_factory=dict)

    def memory_overhead_pct(self, app: str) -> float:
        """Utilization loss of the secure allocator vs the baseline."""
        base = self.baseline_utilization[app]
        if base == 0:
            return 0.0
        return 100.0 * (1.0 - self.secure_utilization[app] / base)

    def average_memory_overhead_pct(self) -> float:
        apps = list(self.secure_utilization)
        return sum(self.memory_overhead_pct(a) for a in apps) / len(apps)


def slab_sensitivity_cell(app: str, requests: int,
                          background_tenants: int) -> dict[str, float]:
    """One (app) cell of the ``slab-sensitivity`` grid: slab
    fragmentation and reassignment under real churn, both allocator
    configurations measured back to back.

    The application shares its kernel with ``background_tenants`` tenants
    in other cgroups, since the secure allocator's fragmentation cost
    only appears when multiple contexts would otherwise pack together.
    """
    image = shared_image()
    per_config: dict[bool, tuple[float, float, float, int]] = {}
    for secure in (True, False):
        kernel = MiniKernel(image=image, config=KernelConfig(
            secure_slab=secure, slab_warm_objects=6000))
        proc = kernel.create_process(app)
        tenants = [kernel.create_process(f"tenant{i}")
                   for i in range(background_tenants)]
        # Background slab churn: small live object populations per
        # tenant plus steady open/close traffic.
        tenant_fds: list[list[int]] = []
        for tenant in tenants:
            fds = [kernel.syscall(tenant, "open", args=(j,)).retval
                   for j in range(4)]
            tenant_fds.append(fds)
        _, served = drive_workload(kernel, proc, app, requests=requests,
                                   rare_every=0)
        for tenant, fds in zip(tenants, tenant_fds):
            for fd in fds[:2]:
                kernel.syscall(tenant, "close", args=(fd,))
            kernel.syscall(tenant, "open", args=(9,))
        stats = kernel.slab.stats
        seconds = served.kernel_cycles / CORE_HZ
        per_second = (stats.reassignment_frees / seconds
                      if seconds > 0 else 0.0)
        per_config[secure] = (
            kernel.slab.utilization(), stats.page_return_ratio,
            per_second, kernel.slab.collocated_owner_pairs())
    return {
        "secure_utilization": per_config[True][0],
        "baseline_utilization": per_config[False][0],
        "page_return_ratio": per_config[True][1],
        "reassignments_per_second": per_config[True][2],
        "baseline_collocations": per_config[False][3],
    }
