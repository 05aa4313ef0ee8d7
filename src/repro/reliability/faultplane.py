"""Deterministic fault-injection plane (the degraded-conditions harness).

Perspective's security argument is *fail-closed*: a view-cache miss, a
DSVMT walk failure, or an unknown allocation must conservatively fence,
never permit (DESIGN.md Sections 5.2-5.3).  The fault plane lets the test
and benchmark layers exercise exactly those degraded microarchitectural
and OS states on demand:

* modules opt in at defined **fault points** (registered in
  :data:`FAULT_POINTS`) by calling :func:`fire` on their degraded-path
  branch;
* a :class:`FaultPlane` arms a set of :class:`FaultSpec` triggers, each
  with its own seeded RNG stream (derived from ``(seed, point)``) so the
  firing pattern of one point never perturbs another's;
* activation is scoped with ``instrumented(faults=plane)``
  (:mod:`repro.obs.instruments`), a context manager, so no fault ever
  leaks across experiments.

Everything is deterministic: same seed + same specs + same workload ==
the same faults fire at the same draws, which is what makes the
invariant sweep and the campaign journal byte-reproducible.

From ``repro`` this module imports only the leaf
:mod:`repro.obs.instruments`, so core/kernel/scanner modules import it
for the hook without cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.obs.instruments import INSTRUMENTS

#: Registry of every fault point modules expose, with the degraded
#: condition each one models.  ``fire()`` rejects unknown points so a
#: typo in a spec cannot silently arm nothing.
FAULT_POINTS: dict[str, str] = {
    "isv-cache-forced-miss": "ISV view-cache lookup misses regardless of "
                             "contents (refill path exercised)",
    "isv-cache-stale": "matched ISV cache entry fails parity: hardware "
                       "discards it and the lookup misses",
    "dsv-cache-forced-miss": "DSV view-cache lookup misses regardless of "
                             "contents",
    "dsv-cache-stale": "matched DSV cache entry fails parity and is "
                       "discarded",
    "dsvmt-walk-fail": "the three-level DSVMT walk aborts "
                       "(DSVMTWalkFault); the policy must fence",
    "buddy-alloc-fail": "transient page-allocation failure "
                        "(OutOfMemory raised before any state changes)",
    "dsv-assign-drop": "a buddy ownership event is lost: the frames stay "
                       "*unknown* (outside every DSV)",
    "trace-drop": "the tracing ring buffer drops a function-entry record",
    "fuzzer-stall": "a fuzzing round spends its time budget without "
                    "making coverage progress",
    "serve-ibpb-drop": "the tenant-switch IBPB microcode op faults; the "
                       "kernel falls back to a full branch-unit flush "
                       "(never a skipped barrier)",
    "view-refill-fault": "a view-cache refill aborts after the "
                         "conservative block: no entry is installed and "
                         "the next access re-misses",
    "admission-queue-corrupt": "an admission-queue slot fails its "
                               "integrity check at arrival: the request "
                               "is shed, never dispatched with corrupt "
                               "tenant metadata",
}


class DSVMTWalkFault(RuntimeError):
    """A DSVMT walk aborted before producing a leaf bit.

    The enforcement policy must treat this as *not in view* -- block the
    load -- and must not install any cache entry for the frame.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault point.

    ``probability`` is evaluated per draw on the point's private RNG
    stream; ``start_after`` skips the first N draws (so boot can
    complete before faults start); ``max_fires`` bounds total firings.
    """

    point: str
    probability: float = 1.0
    max_fires: int | None = None
    start_after: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known points: "
                f"{sorted(FAULT_POINTS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} not in [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return {"point": self.point, "probability": self.probability,
                "max_fires": self.max_fires,
                "start_after": self.start_after}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        return cls(point=data["point"],
                   probability=data.get("probability", 1.0),
                   max_fires=data.get("max_fires"),
                   start_after=data.get("start_after", 0))


@dataclass
class FaultPlane:
    """A seeded set of armed fault points plus firing accounting."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    draws: dict[str, int] = field(default_factory=dict)
    fires: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        by_point: dict[str, FaultSpec] = {}
        for spec in self.specs:
            if spec.point in by_point:
                raise ValueError(f"duplicate spec for point {spec.point!r}")
            by_point[spec.point] = spec
        self._by_point = by_point
        # One private RNG stream per point: firing decisions at one point
        # never shift another point's sequence.
        self._rngs = {point: random.Random(f"{self.seed}:{point}")
                      for point in by_point}

    def should_fire(self, point: str) -> bool:
        """Draw the fault decision for one visit of ``point``."""
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        spec = self._by_point.get(point)
        if spec is None:
            return False
        draw = self.draws.get(point, 0) + 1
        self.draws[point] = draw
        if draw <= spec.start_after:
            return False
        if spec.max_fires is not None \
                and self.fires.get(point, 0) >= spec.max_fires:
            return False
        if spec.probability < 1.0 \
                and self._rngs[point].random() >= spec.probability:
            return False
        self.fires[point] = self.fires.get(point, 0) + 1
        return True

    def total_fires(self) -> int:
        return sum(self.fires.values())

    # -- serialization (for shipping specs into campaign subprocesses) ----

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlane":
        return cls(seed=data.get("seed", 0),
                   specs=tuple(FaultSpec.from_dict(s)
                               for s in data.get("specs", ())))


def fire(point: str) -> bool:
    """Hook called by instrumented modules on their degraded-path branch.

    Near-free when no plane is active (one global read, one attribute
    read and an ``is None`` test), so the fault points cost nothing in
    normal runs.
    """
    plane = INSTRUMENTS.faults
    if plane is None:
        return False
    return plane.should_fire(point)
