"""Slab allocators: the baseline (insecure) and Perspective's secure one.

The baseline slab allocator mirrors Linux's SLUB behaviour that the paper
identifies as a DSV challenge (Section 5.2): objects as small as 8 bytes
from *mutually distrusting contexts* are packed onto the same pages -- even
the same cache lines -- so page-granular ownership cannot be assigned.

Perspective's secure slab allocator (Section 6.1) keeps, for each size
class, separate page lists per cgroup, eliminating collocation at the cost
of some fragmentation (measured at 0.91% in the paper, reproduced in the
sensitivity benchmarks).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.kernel.buddy import BuddyAllocator, OutOfMemory
from repro.kernel.layout import PAGE_SIZE, pa_of_frame

#: kmalloc size classes, following Linux's kmalloc-8 ... kmalloc-4k caches.
SIZE_CLASSES = (8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048, 4096)


def size_class_for(size: int) -> int:
    """Smallest size class that fits ``size`` bytes."""
    index = bisect_left(SIZE_CLASSES, size)
    if index == len(SIZE_CLASSES):
        raise ValueError(f"kmalloc size {size} exceeds largest size class")
    return SIZE_CLASSES[index]


@dataclass
class SlabPage:
    """One physical page carved into equal-size objects."""

    frame: int
    size_class: int
    #: slot index -> owner id, for occupied slots.
    used: dict[int, int | None] = field(default_factory=dict)
    #: High-water mark: no slot at or above it has been claimed yet.
    top: int = 0
    #: Freed slots below ``top``, a min-heap.
    freed: list[int] = field(default_factory=list)

    @property
    def slots(self) -> int:
        return PAGE_SIZE // self.size_class

    @property
    def is_full(self) -> bool:
        return len(self.used) == self.slots

    @property
    def is_empty(self) -> bool:
        return not self.used

    def alloc_slot(self, owner: int | None) -> int:
        """Claim the lowest free slot; returns the object's physical addr.

        Every slot at or above ``top`` is free, so the lowest free slot is
        the least freed one below it, else ``top`` itself.
        """
        if self.freed:
            slot = heappop(self.freed)
        elif self.top < self.slots:
            slot = self.top
            self.top += 1
        else:
            raise RuntimeError("alloc_slot on a full slab page")
        self.used[slot] = owner
        return pa_of_frame(self.frame) + slot * self.size_class

    def free_slot(self, slot: int) -> None:
        del self.used[slot]
        heappush(self.freed, slot)


@dataclass
class SlabStats:
    allocations: int = 0
    frees: int = 0
    pages_acquired: int = 0
    pages_released: int = 0
    #: Transient buddy failures absorbed by the acquire-retry loop.
    alloc_retries: int = 0
    #: Frees that emptied a page and returned it to the buddy allocator --
    #: the "domain reassignment" page-level operations of Section 9.2.
    reassignment_frees: int = 0

    @property
    def page_return_ratio(self) -> float:
        """Fraction of object frees that triggered a page return."""
        if self.frees == 0:
            return 0.0
        return self.reassignment_frees / self.frees

    def as_metrics(self, prefix: str):
        """(name, value) pairs for the observability collectors."""
        yield f"{prefix}.allocations", self.allocations
        yield f"{prefix}.frees", self.frees
        yield f"{prefix}.pages_acquired", self.pages_acquired
        yield f"{prefix}.pages_released", self.pages_released
        yield f"{prefix}.alloc_retries", self.alloc_retries
        yield f"{prefix}.reassignment_frees", self.reassignment_frees
        yield f"{prefix}.page_return_ratio", self.page_return_ratio


class _SlabCore:
    """Machinery shared by the baseline and secure allocators."""

    #: Attempts per page acquisition: transient buddy failures (memory
    #: pressure, injected faults) are retried like the kernel's reclaim
    #: loop before the failure propagates to the caller.
    PAGE_ALLOC_ATTEMPTS = 4

    def __init__(self, buddy: BuddyAllocator) -> None:
        self.buddy = buddy
        self.stats = SlabStats()
        self._page_by_frame: dict[int, SlabPage] = {}
        #: Owner recorded per live object pa (for accounting / analysis).
        self._object_owner: dict[int, int | None] = {}
        self._object_size: dict[int, int] = {}

    def _acquire_page(self, size_class: int, buddy_owner: int | None) -> SlabPage:
        for attempt in range(self.PAGE_ALLOC_ATTEMPTS):
            try:
                frame = self.buddy.alloc_pages(0, owner=buddy_owner)
                break
            except OutOfMemory:
                if attempt == self.PAGE_ALLOC_ATTEMPTS - 1:
                    raise
                self.stats.alloc_retries += 1
        page = SlabPage(frame=frame, size_class=size_class)
        self._page_by_frame[frame] = page
        self.stats.pages_acquired += 1
        return page

    def _release_page(self, page: SlabPage) -> None:
        del self._page_by_frame[page.frame]
        self.buddy.free_pages(page.frame)
        self.stats.pages_released += 1

    def _register(self, pa: int, size: int, owner: int | None) -> None:
        self._object_owner[pa] = owner
        self._object_size[pa] = size
        self.stats.allocations += 1

    def _unregister(self, pa: int) -> tuple[SlabPage, int]:
        """Common kfree bookkeeping; returns (page, slot)."""
        if pa not in self._object_owner:
            raise ValueError(f"kfree of unallocated object at {pa:#x}")
        del self._object_owner[pa]
        del self._object_size[pa]
        frame = pa // PAGE_SIZE
        page = self._page_by_frame[frame]
        slot = (pa % PAGE_SIZE) // page.size_class
        page.free_slot(slot)
        self.stats.frees += 1
        return page, slot

    # -- accounting ----------------------------------------------------

    def active_bytes(self) -> int:
        """Bytes occupied by live objects (size-class granularity)."""
        return sum(self._object_size.values())

    def total_slab_bytes(self) -> int:
        """Bytes of physical memory held by the slab allocator."""
        return len(self._page_by_frame) * PAGE_SIZE

    def utilization(self) -> float:
        """Active object bytes / total slab bytes (slabtop's ratio)."""
        total = self.total_slab_bytes()
        if total == 0:
            return 1.0
        return self.active_bytes() / total

    def owner_of_object(self, pa: int) -> int | None:
        return self._object_owner.get(pa)

    def live_objects(self) -> int:
        return len(self._object_owner)

    def collocated_owner_pairs(self) -> int:
        """Count cache lines holding live objects of >= 2 distinct owners.

        Nonzero here is exactly the isolation violation Perspective's secure
        slab allocator eliminates.
        """
        violations = 0
        for page in self._page_by_frame.values():
            lines: dict[int, set] = {}
            base = pa_of_frame(page.frame)
            for slot, owner in page.used.items():
                line = (base + slot * page.size_class) // 64
                lines.setdefault(line, set()).add(owner)
            violations += sum(1 for owners in lines.values() if len(owners) > 1)
        return violations


class SlabAllocator(_SlabCore):
    """Baseline SLUB-like allocator: one partial-page pool per size class,
    shared by all contexts.  Objects of different cgroups pack together."""

    def __init__(self, buddy: BuddyAllocator) -> None:
        super().__init__(buddy)
        self._partial: dict[int, list[SlabPage]] = {
            cls: [] for cls in SIZE_CLASSES}

    def kmalloc(self, size: int, owner: int | None = None) -> int:
        cls = size_class_for(size)
        pool = self._partial[cls]
        page = pool[0] if pool else None
        if page is None:
            # Baseline slab pages are kernel-owned (no per-context DSV).
            page = self._acquire_page(cls, buddy_owner=None)
            pool.append(page)
        pa = page.alloc_slot(owner)
        if page.is_full:
            pool.remove(page)
        self._register(pa, size, owner)
        return pa

    def kfree(self, pa: int) -> None:
        page, _ = self._unregister(pa)
        pool = self._partial[page.size_class]
        if page.is_empty:
            if page in pool:
                pool.remove(page)
            self._release_page(page)
            self.stats.reassignment_frees += 1
        elif page not in pool:
            pool.append(page)


class SecureSlabAllocator(_SlabCore):
    """Perspective's secure slab allocator (Section 6.1).

    For each slab size class it maintains *separate page lists per cgroup*,
    so no physical page -- and therefore no cache line -- ever holds objects
    of two different contexts.  Emptied pages return to the buddy allocator,
    requiring a domain reassignment (tracked in stats) before reuse.
    """

    def __init__(self, buddy: BuddyAllocator) -> None:
        super().__init__(buddy)
        self._partial: dict[tuple[int, int | None], list[SlabPage]] = {}
        self._page_domain: dict[int, int | None] = {}  # frame -> owner

    def kmalloc(self, size: int, owner: int | None = None) -> int:
        cls = size_class_for(size)
        key = (cls, owner)
        pool = self._partial.setdefault(key, [])
        page = pool[0] if pool else None
        if page is None:
            # The page itself is tagged with the owning cgroup so the DSV
            # hook on the buddy allocator assigns it to the right view.
            page = self._acquire_page(cls, buddy_owner=owner)
            self._page_domain[page.frame] = owner
            pool.append(page)
        pa = page.alloc_slot(owner)
        if page.is_full:
            pool.remove(page)
        self._register(pa, size, owner)
        return pa

    def kfree(self, pa: int) -> None:
        page, _ = self._unregister(pa)
        domain = self._page_domain.get(page.frame)
        pool = self._partial.setdefault((page.size_class, domain), [])
        if page.is_empty:
            if page in pool:
                pool.remove(page)
            del self._page_domain[page.frame]
            self._release_page(page)
            self.stats.reassignment_frees += 1
        elif page not in pool:
            pool.append(page)

    def domain_of_page(self, frame: int) -> int | None:
        return self._page_domain.get(frame)
