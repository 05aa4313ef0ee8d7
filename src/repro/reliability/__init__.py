"""Reliability subsystem: fault injection, invariants, resilient campaigns.

Two halves (see docs/architecture.md, "Reliability & fault injection"):

* the **fault-injection plane** (:mod:`repro.reliability.faultplane`):
  deterministic, seeded fault points that core/kernel/scanner modules opt
  into, armed with ``repro.obs.instrumented(faults=plane)`` (the one
  activation scope every plane shares), plus the
  :class:`~repro.reliability.invariants.InvariantChecker` that proves
  the fail-closed invariants hold under injected faults;
* the **resilient campaign runner**
  (:mod:`repro.reliability.campaign`): subprocess-isolated, retrying,
  journaled execution of the experiment grids of
  :mod:`repro.exec.grids` with checkpoint/resume; the journal stores
  each grid's cell payloads.

Only the fault plane is imported eagerly here: ``core`` and ``kernel``
modules import :func:`fire` from this package, while the campaign and
invariant layers import ``core``/``eval`` -- eager imports would cycle.
"""

from __future__ import annotations

from repro.reliability.faultplane import (
    DSVMTWalkFault,
    FAULT_POINTS,
    FaultPlane,
    FaultSpec,
    fire,
)

#: Lazily-resolved exports from the heavier submodules (cycle avoidance).
_LAZY = {
    "CampaignConfig": "repro.reliability.campaign",
    "CampaignRunner": "repro.reliability.campaign",
    "CampaignState": "repro.reliability.campaign",
    "smoke_campaign": "repro.reliability.campaign",
    "FAULT_SWEEP": "repro.reliability.invariants",
    "FaultScenario": "repro.reliability.invariants",
    "InvariantChecker": "repro.reliability.invariants",
    "InvariantMatrix": "repro.reliability.invariants",
    "InvariantVerdict": "repro.reliability.invariants",
    "audit_dsv_fail_closed": "repro.reliability.invariants",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "DSVMTWalkFault",
    "FAULT_POINTS",
    "FaultPlane",
    "FaultSpec",
    "fire",
    *sorted(_LAZY),
]
