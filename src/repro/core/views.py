"""Speculation views: the paper's central abstraction (Section 5.1).

A *speculation view* is associated with an execution context (process /
container / cgroup) and communicates the OS's security requirements to the
hardware protection mechanism:

* a :class:`DataSpeculationView` defines the set of kernel data the context
  *owns*; speculative access outside it is blocked (mitigates **active**
  attacks);
* an :class:`InstructionSpeculationView` defines the set of kernel code the
  context trusts for speculative execution; transmitter instructions
  outside it are blocked (mitigates **passive** attacks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.isa import CodeLayout
from repro.obs import events as ev


@dataclass
class DataSpeculationView:
    """The set of physical frames owned by one execution context.

    Maintained by :class:`repro.core.dsv.DSVRegistry` from allocator
    ownership events; this object is the per-context materialization.
    """

    context_id: int
    frames: set[int] = field(default_factory=set)

    def __contains__(self, frame: int) -> bool:
        return frame in self.frames

    def __len__(self) -> int:
        return len(self.frames)


class InstructionSpeculationView:
    """The set of kernel functions a context trusts speculatively.

    Defined at function granularity (the paper's simplification in Section
    5.1); enforcement happens per instruction through the ISV bitmap pages
    and the layout's address resolution.

    ISVs are *dynamically reconfigurable* (Section 5.4): :meth:`shrink`
    produces a stricter view, e.g. to exclude newly-discovered vulnerable
    functions without a kernel patch.
    """

    def __init__(self, context_id: int, functions: frozenset[str],
                 layout: CodeLayout, source: str = "static") -> None:
        self.context_id = context_id
        self.functions = frozenset(functions)
        self.layout = layout
        self.source = source
        unknown = [f for f in self.functions if f not in layout]
        if unknown:
            raise ValueError(f"ISV references unknown functions: "
                             f"{sorted(unknown)[:5]}")

    def __contains__(self, function_name: str) -> bool:
        return function_name in self.functions

    def __len__(self) -> int:
        return len(self.functions)

    def contains_va(self, inst_va: int) -> bool:
        """Whether the instruction at ``inst_va`` belongs to the view.

        The reference answer the tests hold the range-filled ISV bitmap
        pages (:mod:`repro.core.isv`) to; no library code calls it.
        """
        resolved = self.layout.resolve_va(inst_va)
        if resolved is None:
            return False
        func, _ = resolved
        return func.name in self.functions

    def shrink(self, remove: frozenset[str] | set[str],
               source_suffix: str = "++") -> "InstructionSpeculationView":
        """Return a stricter ISV excluding ``remove`` (runtime tightening)."""
        removed = frozenset(remove) & self.functions
        ev.emit("isv-shrink", context=self.context_id,
                reason=f"removed:{len(removed)}", scheme=self.source)
        return InstructionSpeculationView(
            self.context_id, self.functions - frozenset(remove),
            self.layout, source=self.source + source_suffix)

    def surface_reduction(self, total_functions: int) -> float:
        """Fraction of kernel functions this ISV removes from the
        speculatively-executable surface (Table 8.1's metric)."""
        if total_functions == 0:
            return 0.0
        return 1.0 - len(self.functions) / total_functions
