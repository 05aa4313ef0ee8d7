"""The Data Speculation View Metadata Table (Section 6.2).

A per-context three-level tree, walked in parallel to the TLB, supporting
the three contemporary page sizes (4 KB, 2 MB, 1 GB).  Each leaf entry is a
single bit: whether the 4 KB page belongs to the context's DSV.  Interior
entries can short-circuit a walk when an aligned 2 MB / 1 GB region is
uniformly inside the view (huge-page promotion).

The hardware keeps a small DSVMT cache (see
:class:`repro.core.hardware.ViewCache`); on a cache miss, rather than
stalling for the walk, Perspective conservatively blocks speculation and
refills in the background.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import events as ev
from repro.reliability.faultplane import DSVMTWalkFault, fire

#: Frames per level-2 entry (2 MB / 4 KB).
L2_SPAN = 512
#: Frames per level-1 entry (1 GB / 4 KB).
L1_SPAN = 512 * 512

#: Cycles for a full three-level walk (miss path, charged by the policy).
WALK_LATENCY = 30.0


@dataclass
class DSVMTStats:
    walks: int = 0
    leaf_lookups: int = 0
    huge_hits: int = 0  # walks answered at the 2MB/1GB level
    walk_faults: int = 0  # fault-injected aborted walks

    def as_metrics(self, prefix: str):
        """(name, value) pairs for the observability collectors."""
        yield f"{prefix}.walks", self.walks
        yield f"{prefix}.leaf_lookups", self.leaf_lookups
        yield f"{prefix}.huge_hits", self.huge_hits
        yield f"{prefix}.walk_faults", self.walk_faults


class DSVMT:
    """Three-level bit tree over physical frames for one context."""

    def __init__(self, context_id: int) -> None:
        self.context_id = context_id
        # Leaf bits: frame -> True (present means in-view).
        self._leaf: set[int] = set()
        # Population counts per interior entry, for promotion checks.
        self._l2_count: dict[int, int] = {}
        self._l1_count: dict[int, int] = {}
        self.stats = DSVMTStats()

    def set_page(self, frame: int, in_view: bool) -> None:
        """Set or clear the leaf bit for a 4 KB frame."""
        if in_view:
            if frame in self._leaf:
                return
            self._leaf.add(frame)
            delta = 1
        else:
            if frame not in self._leaf:
                return
            self._leaf.discard(frame)
            delta = -1
        l2 = frame // L2_SPAN
        l1 = frame // L1_SPAN
        self._l2_count[l2] = self._l2_count.get(l2, 0) + delta
        self._l1_count[l1] = self._l1_count.get(l1, 0) + delta
        if self._l2_count[l2] == 0:
            del self._l2_count[l2]
        if self._l1_count[l1] == 0:
            del self._l1_count[l1]

    def lookup(self, frame: int) -> bool:
        """Walk the tree for one frame (the hardware's miss path).

        Raises :class:`DSVMTWalkFault` when the fault plane aborts the
        walk; the enforcement policy must fence the load and install no
        cache entry (fail-closed).
        """
        self.stats.walks += 1
        if fire("dsvmt-walk-fail"):
            self.stats.walk_faults += 1
            ev.emit_here("dsvmt-walk", reason="fault")
            raise DSVMTWalkFault(
                f"injected DSVMT walk failure (context {self.context_id}, "
                f"frame {frame})")
        l1 = frame // L1_SPAN
        if self._l1_count.get(l1, 0) == L1_SPAN:
            self.stats.huge_hits += 1
            ev.emit_here("dsvmt-walk", reason="huge-hit")
            return True  # whole 1 GB region in view
        l2 = frame // L2_SPAN
        count = self._l2_count.get(l2, 0)
        if count == L2_SPAN:
            self.stats.huge_hits += 1
            ev.emit_here("dsvmt-walk", reason="huge-hit")
            return True  # whole 2 MB region in view
        if count == 0:
            ev.emit_here("dsvmt-walk", reason="empty")
            return False  # interior entry empty: no leaf can be set
        self.stats.leaf_lookups += 1
        ev.emit_here("dsvmt-walk", reason="leaf")
        return frame in self._leaf

    def frames(self) -> frozenset[int]:
        """All leaf frames currently in view (audit/invariant checks)."""
        return frozenset(self._leaf)

    def __contains__(self, frame: int) -> bool:
        return frame in self._leaf

    def __len__(self) -> int:
        return len(self._leaf)
