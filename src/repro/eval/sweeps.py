"""Microarchitectural parameter sweeps.

The paper fixes one core configuration (Table 7.1); these sweeps show how
the headline overheads move with the structures that matter, which is both
a sanity check on the model (overheads must respond in the physically
sensible direction) and the ablation data a reviewer would ask for:

* **branch resolution latency** -- the speculation-window length; FENCE's
  cost grows with it, Perspective's barely moves (its fences are rare);
* **ROB size** -- deeper windows help the unprotected baseline overlap
  misses more than they help FENCE (whose chains are data-limited), so
  the *relative* overhead grows slightly and saturates;
* **view-cache entries** -- Perspective's conservative-miss rate.

Each sweep is one ``sweep-branch``/``sweep-rob`` grid of
:mod:`repro.exec.grids`; :func:`sweep_cell` is its cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.flavors import FLAVORS, non_driver_isv_functions
from repro.core.views import InstructionSpeculationView
from repro.defenses.registry import arm
from repro.eval.metrics import geomean
from repro.kernel.image import shared_image
from repro.kernel.kernel import KernelConfig, MiniKernel
from repro.workloads.lebench import build_tests, run_lebench

#: Representative LEBench subset for sweeps (one per behavioural class).
SWEEP_TESTS = ("getpid", "read", "mmap", "select")


@dataclass
class SweepResult:
    """Overhead (percent vs unsafe at the same point) per swept value."""

    parameter: str
    scheme: str
    overhead_pct: dict[float, float] = field(default_factory=dict)

    def values(self) -> list[float]:
        return sorted(self.overhead_pct)

    def render(self) -> str:
        lines = [f"{self.parameter} sweep under {self.scheme}:"]
        for value in self.values():
            lines.append(f"  {value:>8g}: {self.overhead_pct[value]:+6.1f}%")
        return "\n".join(lines)


def sweep_cell(parameter: str, value: float,
               scheme: str) -> dict[str, float]:
    """One swept value: the geomean LEBench-subset overhead (percent,
    ``overhead_pct``) of ``scheme`` vs unsafe, with the pipeline's
    ``parameter`` set to ``value`` for both.

    Policies come from the scheme registry, so every registered scheme
    is measured as itself and an unknown name raises ``ValueError``.
    Perspective flavors all get the sweep's own view: one ISV holding
    every non-driver function.
    """
    tests = [t for t in build_tests() if t.name in SWEEP_TESTS]
    cycles = {}
    for name in ("unsafe", scheme):
        config = KernelConfig()
        setattr(config.pipeline, parameter, value)
        kernel = MiniKernel(image=shared_image(), config=config)
        proc = kernel.create_process("sweep")
        views = ()
        if name in FLAVORS:
            views = (InstructionSpeculationView(
                proc.cgroup.cg_id, non_driver_isv_functions(kernel.image),
                kernel.image.layout, source="sweep"),)
        arm(kernel, name, views)
        cycles[name] = run_lebench(kernel, proc, tests=tests)
    ratios = [cycles[scheme][t] / cycles["unsafe"][t] for t in cycles[scheme]]
    return {"overhead_pct": 100.0 * (geomean(ratios) - 1.0)}
