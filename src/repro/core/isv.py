"""ISV bitmap pages: the OS-side backing store of ISVs (Figure 6.1a).

Each kernel code page has a companion ISV page at a fixed VA offset holding
one bit per instruction slot.  Pages are populated *on demand*: the first
ISV-cache miss touching a code page triggers population from the context's
function-granularity view.  This keeps setup cost proportional to the code
actually executed, not the kernel size.

A page is filled from the address ranges of the view's functions that
overlap it, one slice each; the bits equal ``contains_va`` of every slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import OP_SIZE
from repro.core.views import InstructionSpeculationView
from repro.kernel.layout import ISV_PAGE_OFFSET, PAGE_SIZE


@dataclass
class ISVPageStats:
    populated_pages: int = 0
    bit_queries: int = 0


class ISVPageTable:
    """Demand-populated ISV bitmap pages for one context's ISV."""

    def __init__(self, isv: InstructionSpeculationView) -> None:
        self.isv = isv
        self._pages: dict[int, list[bool]] = {}  # code page no -> bits
        self.stats = ISVPageStats()

    @staticmethod
    def isv_page_va(code_va: int) -> int:
        """VA of the ISV page shadowing the code page of ``code_va``."""
        return (code_va & ~(PAGE_SIZE - 1)) + ISV_PAGE_OFFSET

    def _populate(self, code_page: int) -> list[bool]:
        page_va = code_page * PAGE_SIZE
        page_end = page_va + PAGE_SIZE
        bits = [False] * (PAGE_SIZE // OP_SIZE)
        for func in self.isv.layout.functions_overlapping(page_va, page_end):
            if func.name in self.isv.functions:
                # Slot i holds the op at page_va + i * OP_SIZE.  Rounding
                # both ends up keeps exactly the slots inside the body,
                # however the function is aligned to the page.
                first = -(-(max(func.base_va, page_va) - page_va) // OP_SIZE)
                last = -(-(min(func.end_va, page_end) - page_va) // OP_SIZE)
                bits[first:last] = [True] * (last - first)
        self._pages[code_page] = bits
        self.stats.populated_pages += 1
        return bits

    def bit_for(self, inst_va: int) -> bool:
        """The ISV bit for one instruction (populating its page if new)."""
        self.stats.bit_queries += 1
        code_page = inst_va // PAGE_SIZE
        bits = self._pages.get(code_page)
        if bits is None:
            bits = self._populate(code_page)
        return bits[(inst_va % PAGE_SIZE) // OP_SIZE]

    def is_populated(self, inst_va: int) -> bool:
        return inst_va // PAGE_SIZE in self._pages

    def populated_pages(self) -> int:
        return len(self._pages)

    def invalidate(self) -> None:
        """Drop all populated pages; each refills on its next query.

        ``Perspective.install_isv`` does not call this: a replaced view
        gets a fresh table.
        """
        self._pages.clear()
