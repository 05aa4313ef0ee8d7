"""Static taint analysis for transient-execution gadget detection.

The detector walks a function's micro-ops tracking two register sets:

* **attacker-influenced** -- seeded with the syscall-argument registers
  (r0-r2) and with r5, the register live pointer values survive in across
  control-flow hijacks (Kasper's *speculative type confusion* class [86]);
* **speculatively-accessed** -- destinations of loads whose address was
  attacker-influenced (the *access* step).

A load whose address derives from speculatively-accessed data is the
*transmit* step: access + transmit in one function is a transient
execution gadget (Section 2.2's two-step generalization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import Function, Op

#: Registers an attacker influences: syscall arguments architecturally,
#: plus the live-pointer register exploitable via type confusion.
TAINT_SEED = frozenset({"r0", "r1", "r2", "r5"})


@dataclass(frozen=True)
class GadgetFinding:
    """One detected gadget: where the access and transmit steps live."""

    function: str
    access_index: int
    transmit_index: int
    gadget_class: str


def analyze_function(func: Function,
                     gadget_classes: tuple[str, ...] = (),
                     ) -> list[GadgetFinding]:
    """Scan one function; returns every access->transmit chain found.

    ``gadget_classes`` labels the covert-channel class (MDS / port
    contention / cache) of each finding in body order; deriving the class
    requires the microarchitectural analysis Kasper performs on hardware
    traces, which the synthetic image records as ground truth.  Findings
    beyond the labeled count default to "cache".
    """
    tainted: set[str] = set(TAINT_SEED)
    accessed: set[str] = set()
    access_index: int | None = None
    findings: list[GadgetFinding] = []
    for idx, op in enumerate(func.body):
        kind = op.op
        if kind is Op.ALU:
            if op.dst is None:
                continue
            srcs = op.reads()
            if any(src in accessed for src in srcs):
                accessed.add(op.dst)
                tainted.discard(op.dst)
            elif any(src in tainted for src in srcs):
                tainted.add(op.dst)
                accessed.discard(op.dst)
            else:
                tainted.discard(op.dst)
                accessed.discard(op.dst)
        elif kind is Op.LOAD:
            if op.src1 in accessed:
                # Transmit: address depends on speculatively-accessed data.
                n = len(findings)
                label = gadget_classes[n] if n < len(gadget_classes) \
                    else "cache"
                findings.append(GadgetFinding(
                    function=func.name,
                    access_index=access_index if access_index is not None
                    else idx,
                    transmit_index=idx,
                    gadget_class=label))
                accessed.add(op.dst)
                tainted.discard(op.dst)
            elif op.src1 in tainted:
                accessed.add(op.dst)
                tainted.discard(op.dst)
                access_index = idx
            else:
                tainted.discard(op.dst)
                accessed.discard(op.dst)
    return findings
