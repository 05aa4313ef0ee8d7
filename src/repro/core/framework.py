"""The Perspective framework: wiring speculation views into the OS.

``Perspective`` binds a :class:`~repro.kernel.kernel.MiniKernel` to the
view machinery:

* attaches the :class:`~repro.core.dsv.DSVRegistry` to the kernel's buddy
  allocator (replaying any pre-existing allocations), so every owned frame
  lands in its context's DSV and DSVMT;
* holds the per-context ISVs (installed at "application startup" by the
  static/dynamic generators of :mod:`repro.analysis`) and their
  demand-populated bitmap pages;
* owns the hardware ISV/DSV caches shared with the enforcement policy.

The pliable interface of the paper is exactly this object: the OS adjusts
views at runtime (install, shrink, exclude vulnerable functions) and the
hardware policy consults them on every speculative load.
"""

from __future__ import annotations

from repro.core.dsv import DSVRegistry
from repro.core.hardware import ViewCache
from repro.core.isv import ISVPageTable
from repro.core.views import InstructionSpeculationView
from repro.kernel.kernel import MiniKernel


class Perspective:
    """Framework instance bound to one kernel."""

    def __init__(self, kernel: MiniKernel, *,
                 isv_cache_entries: int = 128,
                 dsv_cache_entries: int = 128,
                 cache_ways: int = 4) -> None:
        self.kernel = kernel
        self.dsv_registry = DSVRegistry()
        self.dsv_registry.attach(kernel.buddy)
        # Replay allocations made before the framework attached (processes
        # created during early boot).
        for first_frame, order, owner in kernel.buddy.allocations():
            self.dsv_registry.on_alloc(first_frame, 1 << order, owner)
        self._isvs: dict[int, InstructionSpeculationView] = {}
        self._isv_pages: dict[int, ISVPageTable] = {}
        #: Bumped on every view installation/replacement.  Policy-side
        #: memoization of per-context view objects (PerspectivePolicy)
        #: keys its validity on this counter, so a shrunken or replaced
        #: view takes effect on the very next speculative load.
        self.view_epoch = 0
        self.isv_cache = ViewCache("isv", entries=isv_cache_entries,
                                   ways=cache_ways)
        self.dsv_cache = ViewCache("dsv", entries=dsv_cache_entries,
                                   ways=cache_ways)

    # -- ISV management ---------------------------------------------------

    def install_isv(self, isv: InstructionSpeculationView) -> None:
        """Install (or replace) the ISV of ``isv.context_id``.

        Replacement invalidates the context's hardware ISV-cache entries
        and bitmap pages, so a shrunken view takes effect immediately --
        the paper's no-downtime gadget patching (Section 5.4).
        """
        self._isvs[isv.context_id] = isv
        self._isv_pages[isv.context_id] = ISVPageTable(isv)
        self.isv_cache.invalidate_asid(isv.context_id)
        self.view_epoch += 1

    def isv_for(self, context_id: int) -> InstructionSpeculationView | None:
        return self._isvs.get(context_id)

    def isv_pages_for(self, context_id: int) -> ISVPageTable | None:
        return self._isv_pages.get(context_id)

    def shrink_isv(self, context_id: int,
                   remove: frozenset[str] | set[str]) -> InstructionSpeculationView:
        """Tighten a context's ISV at runtime (Section 5.4)."""
        isv = self._isvs[context_id]
        stricter = isv.shrink(remove)
        self.install_isv(stricter)
        return stricter

    def contexts_with_isvs(self) -> list[int]:
        return list(self._isvs)

    # -- DSV queries --------------------------------------------------------

    def frame_in_dsv(self, frame: int, context_id: int) -> bool:
        return self.dsv_registry.frame_in_view(frame, context_id)

    def reset_hardware(self) -> None:
        """Flush the view caches (e.g. between benchmark runs)."""
        self.isv_cache.flush()
        self.dsv_cache.flush()
        self.isv_cache.stats.reset()
        self.dsv_cache.stats.reset()
