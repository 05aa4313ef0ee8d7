"""Buddy (page) allocator with ownership tracking.

This is the kernel's primary physical-frame allocator.  Perspective hooks
allocation and free events: ``alloc_pages()`` obtains the cgroup of the
current execution context and associates the allocated frames with that
context's DSV for the corresponding direct-map pages; freeing disassociates
them (Section 6.1, "Data speculation views with cgroups").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.kernel.layout import TOTAL_FRAMES
from repro.reliability.faultplane import fire


class OutOfMemory(Exception):
    """No free block of the requested order is available."""


@dataclass
class BuddyStats:
    allocations: int = 0
    frees: int = 0
    splits: int = 0
    merges: int = 0
    #: Fault-injected transient allocation failures.
    injected_failures: int = 0

    def as_metrics(self, prefix: str):
        """(name, value) pairs for the observability collectors."""
        yield f"{prefix}.allocations", self.allocations
        yield f"{prefix}.frees", self.frees
        yield f"{prefix}.splits", self.splits
        yield f"{prefix}.merges", self.merges
        yield f"{prefix}.injected_failures", self.injected_failures


#: Callback signature: (first_frame, num_frames, owner_id | None).
OwnershipHook = Callable[[int, int, int | None], None]


class BuddyAllocator:
    """Binary-buddy allocator over a flat range of physical frames.

    Frames ``[0, reserved)`` are excluded (boot-reserved memory).  Owners
    are opaque integer ids (cgroup ids in the kernel model).
    """

    MAX_ORDER = 10

    def __init__(self, total_frames: int = TOTAL_FRAMES,
                 reserved_frames: int = 0) -> None:
        if total_frames <= reserved_frames:
            raise ValueError("no allocatable frames")
        self.total_frames = total_frames
        self.reserved_frames = reserved_frames
        self.stats = BuddyStats()
        self._free: list[set[int]] = [set() for _ in range(self.MAX_ORDER + 1)]
        self._allocated: dict[int, int] = {}  # first frame -> order
        self._owner: dict[int, int | None] = {}  # first frame -> owner id
        self.on_alloc: OwnershipHook | None = None
        self.on_free: OwnershipHook | None = None
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        frame = self.reserved_frames
        end = self.total_frames
        while frame < end:
            # Largest aligned block that fits.
            order = self.MAX_ORDER
            while order > 0 and (frame % (1 << order) != 0
                                 or frame + (1 << order) > end):
                order -= 1
            self._free[order].add(frame)
            frame += 1 << order

    # ------------------------------------------------------------------

    def alloc_pages(self, order: int = 0, owner: int | None = None) -> int:
        """Allocate ``2**order`` contiguous frames; returns the first frame.

        ``owner`` is recorded and passed to the ownership hook, which the
        Perspective framework uses to populate the owner's DSV.
        """
        if not 0 <= order <= self.MAX_ORDER:
            raise ValueError(f"order {order} out of range")
        if fire("buddy-alloc-fail"):
            # Transient failure injected *before* any state changes: no
            # frame is carved, no owner recorded, no hook fired -- the
            # failure can only surface as "no allocation", never as a
            # stale owner.
            self.stats.injected_failures += 1
            raise OutOfMemory("injected transient allocation failure")
        found = None
        for o in range(order, self.MAX_ORDER + 1):
            if self._free[o]:
                found = o
                break
        if found is None:
            raise OutOfMemory(f"no free block of order >= {order}")
        frame = min(self._free[found])
        self._free[found].discard(frame)
        # Split down to the requested order, returning buddies to free lists.
        while found > order:
            found -= 1
            buddy = frame + (1 << found)
            self._free[found].add(buddy)
            self.stats.splits += 1
        self._allocated[frame] = order
        self._owner[frame] = owner
        self.stats.allocations += 1
        if self.on_alloc is not None:
            self.on_alloc(frame, 1 << order, owner)
        return frame

    def free_pages(self, frame: int) -> None:
        """Free a block previously returned by :meth:`alloc_pages`."""
        order = self._allocated.pop(frame, None)
        if order is None:
            raise ValueError(f"frame {frame} is not an allocated block head")
        owner = self._owner.pop(frame, None)
        self.stats.frees += 1
        if self.on_free is not None:
            self.on_free(frame, 1 << order, owner)
        # Coalesce with the buddy while possible.
        while order < self.MAX_ORDER:
            buddy = frame ^ (1 << order)
            if buddy < self.reserved_frames or buddy not in self._free[order]:
                break
            self._free[order].discard(buddy)
            frame = min(frame, buddy)
            order += 1
            self.stats.merges += 1
        self._free[order].add(frame)

    # ------------------------------------------------------------------

    def allocations(self) -> list[tuple[int, int, int | None]]:
        """Live allocations as (first_frame, order, owner) tuples -- used
        to replay ownership into a DSV registry attached after boot."""
        return [(frame, order, self._owner.get(frame))
                for frame, order in self._allocated.items()]

    def owner_of(self, frame: int) -> int | None:
        """Owner of the allocated block containing ``frame`` (block head)."""
        return self._owner.get(frame)

    def free_frames(self) -> int:
        return sum(len(blocks) << order
                   for order, blocks in enumerate(self._free))

    def allocated_frames(self) -> int:
        return sum(1 << order for order in self._allocated.values())

    def check_invariants(self) -> None:
        """Every frame is free, allocated, or reserved -- exactly once."""
        seen: set[int] = set()
        for order, blocks in enumerate(self._free):
            for head in blocks:
                block = range(head, head + (1 << order))
                if seen.intersection(block):
                    raise AssertionError("overlapping free blocks")
                seen.update(block)
        for head, order in self._allocated.items():
            block = range(head, head + (1 << order))
            if seen.intersection(block):
                raise AssertionError("frame both free and allocated")
            seen.update(block)
        expected = set(range(self.reserved_frames, self.total_frames))
        if seen != expected:
            missing = expected - seen
            extra = seen - expected
            raise AssertionError(
                f"frame accounting broken: missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}")
