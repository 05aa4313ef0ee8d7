"""Dynamic ISV generation (Section 5.3, Figure 5.3b).

Perspective leverages the kernel tracing subsystem to record the system
calls and kernel function paths a workload actually exercises, producing a
personalized dynamic ISV.  Compared to static ISVs it (a) excludes
statically-reachable-but-unused functions (smaller surface) and (b)
*includes* indirect-call targets that static analysis cannot see (better
performance).
"""

from __future__ import annotations

from typing import Callable

from repro.core.views import InstructionSpeculationView
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process


def profile_workload(kernel: MiniKernel, proc: Process,
                     workload: Callable[[], None]) -> frozenset[str]:
    """Run ``workload`` under tracing; returns the kernel functions its
    context touched (the dynamic ISV profile)."""
    tracer = kernel.tracer
    was_enabled = tracer.enabled
    tracer.start()
    try:
        workload()
    finally:
        if not was_enabled:
            tracer.stop()
    return tracer.traced_functions(proc.cgroup.cg_id)


def generate_dynamic_isv(kernel: MiniKernel, proc: Process,
                         workload: Callable[[], None],
                         ) -> InstructionSpeculationView:
    """Profile a workload and build the dynamic ISV for its context."""
    functions = profile_workload(kernel, proc, workload)
    return InstructionSpeculationView(
        proc.cgroup.cg_id, functions, kernel.image.layout, source="dynamic")


def seccomp_filter_from_trace(kernel: MiniKernel, context_id: int):
    """Derive a seccomp allow-list from the same trace a dynamic ISV uses.

    The paper's ISV generation "marries" system-call interposition with
    speculation control (Section 5.3): one profiling pass yields both the
    conventional architectural sandbox (this filter) and the speculative
    one (the ISV).  Unlike blocked ISV functions -- which merely execute
    non-speculatively -- a blocked syscall returns an error, which is why
    seccomp policies must over-approximate while ISVs can be tight.
    """
    from repro.kernel.seccomp import SeccompFilter
    syscalls = kernel.tracer.traced_syscalls(context_id)
    return SeccompFilter.allow_list(syscalls)
