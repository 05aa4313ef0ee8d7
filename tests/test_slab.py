"""Tests for the baseline and secure slab allocators."""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import slab as slab_mod
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.layout import PAGE_SIZE, pa_of_frame
from repro.kernel.slab import (
    SIZE_CLASSES,
    SecureSlabAllocator,
    SlabAllocator,
    size_class_for,
)


def make_pair():
    return (SlabAllocator(BuddyAllocator(256, 0)),
            SecureSlabAllocator(BuddyAllocator(256, 0)))


class TestSizeClasses:
    def test_rounding_up(self):
        assert size_class_for(1) == 8
        assert size_class_for(8) == 8
        assert size_class_for(9) == 16
        assert size_class_for(100) == 128
        assert size_class_for(4096) == 4096

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            size_class_for(4097)

    def test_classes_ascending(self):
        assert list(SIZE_CLASSES) == sorted(SIZE_CLASSES)


class TestBaselineSlab:
    def test_alloc_free_roundtrip(self):
        slab = SlabAllocator(BuddyAllocator(64, 0))
        pa = slab.kmalloc(100, owner=1)
        assert slab.owner_of_object(pa) == 1
        slab.kfree(pa)
        assert slab.owner_of_object(pa) is None

    def test_objects_pack_within_one_page(self):
        slab = SlabAllocator(BuddyAllocator(64, 0))
        pas = [slab.kmalloc(64, owner=1) for _ in range(8)]
        assert len({pa // 4096 for pa in pas}) == 1

    def test_distrusting_owners_share_cache_lines(self):
        """The insecurity Perspective's slab fixes: 8-byte objects of two
        contexts land on one 64-byte line."""
        slab = SlabAllocator(BuddyAllocator(64, 0))
        for i in range(8):
            slab.kmalloc(8, owner=i % 2)
        assert slab.collocated_owner_pairs() > 0

    def test_empty_page_returns_to_buddy(self):
        buddy = BuddyAllocator(64, 0)
        slab = SlabAllocator(buddy)
        before = buddy.free_frames()
        pas = [slab.kmalloc(1024, owner=1) for _ in range(4)]
        assert buddy.free_frames() == before - 1
        for pa in pas:
            slab.kfree(pa)
        assert buddy.free_frames() == before
        assert slab.stats.reassignment_frees == 1

    def test_double_free_rejected(self):
        slab = SlabAllocator(BuddyAllocator(64, 0))
        pa = slab.kmalloc(32)
        slab.kfree(pa)
        with pytest.raises(ValueError):
            slab.kfree(pa)

    def test_utilization_accounting(self):
        slab = SlabAllocator(BuddyAllocator(64, 0))
        slab.kmalloc(2048, owner=1)
        assert slab.active_bytes() == 2048
        assert slab.total_slab_bytes() == 4096
        assert slab.utilization() == pytest.approx(0.5)

    def test_empty_allocator_utilization_is_one(self):
        slab = SlabAllocator(BuddyAllocator(64, 0))
        assert slab.utilization() == 1.0


class TestSecureSlab:
    def test_owners_never_share_pages(self):
        slab = SecureSlabAllocator(BuddyAllocator(256, 0))
        pas = {owner: [slab.kmalloc(64, owner=owner) for _ in range(20)]
               for owner in (1, 2, 3)}
        pages = {owner: {pa // 4096 for pa in pa_list}
                 for owner, pa_list in pas.items()}
        assert not pages[1] & pages[2]
        assert not pages[1] & pages[3]
        assert not pages[2] & pages[3]

    def test_no_cross_owner_cache_lines_ever(self):
        slab = SecureSlabAllocator(BuddyAllocator(256, 0))
        rng = random.Random(7)
        live = []
        for i in range(300):
            if rng.random() < 0.6 or not live:
                live.append(slab.kmalloc(rng.choice((8, 16, 64, 256)),
                                         owner=rng.randrange(4)))
            else:
                slab.kfree(live.pop(rng.randrange(len(live))))
            assert slab.collocated_owner_pairs() == 0

    def test_page_tagged_with_domain(self):
        slab = SecureSlabAllocator(BuddyAllocator(64, 0))
        pa = slab.kmalloc(128, owner=5)
        assert slab.domain_of_page(pa // 4096) == 5

    def test_domain_reassignment_on_empty_page(self):
        buddy = BuddyAllocator(64, 0)
        slab = SecureSlabAllocator(buddy)
        pa = slab.kmalloc(2048, owner=1)
        pa2 = slab.kmalloc(2048, owner=1)
        slab.kfree(pa)
        slab.kfree(pa2)
        assert slab.stats.reassignment_frees == 1
        assert slab.domain_of_page(pa // 4096) is None

    def test_buddy_frames_tagged_with_owner(self):
        """Secure slab pages carry the cgroup, so the DSV hook sees them."""
        buddy = BuddyAllocator(64, 0)
        owners = []
        buddy.on_alloc = lambda f, n, o: owners.append(o)
        slab = SecureSlabAllocator(buddy)
        slab.kmalloc(64, owner=42)
        assert owners == [42]

    def test_same_class_different_owner_needs_two_pages(self):
        buddy = BuddyAllocator(64, 0)
        slab = SecureSlabAllocator(buddy)
        before = buddy.free_frames()
        slab.kmalloc(64, owner=1)
        slab.kmalloc(64, owner=2)
        assert buddy.free_frames() == before - 2

    @given(st.lists(st.tuples(st.sampled_from((8, 64, 256, 1024)),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_live_object_accounting(self, allocations):
        slab = SecureSlabAllocator(BuddyAllocator(1024, 0))
        pas = [slab.kmalloc(size, owner=owner)
               for size, owner in allocations]
        assert slab.live_objects() == len(pas)
        assert len(set(pas)) == len(pas)  # no address reuse while live
        for pa in pas:
            slab.kfree(pa)
        assert slab.live_objects() == 0
        assert slab.active_bytes() == 0


# ----------------------------------------------------------------------
# Differential test against the scanning slab page
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ScanningSlabPage:
    """Reference slab page: claims the lowest free slot by scanning up
    from slot 0."""

    frame: int
    size_class: int
    used: dict[int, int | None] = dataclasses.field(default_factory=dict)

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
        for slot in range(self.slots):
            if slot not in self.used:
                self.used[slot] = owner
                return pa_of_frame(self.frame) + slot * self.size_class
        raise RuntimeError("alloc_slot on a full slab page")

    def free_slot(self, slot: int) -> None:
        del self.used[slot]


#: ``kmalloc`` of one size (one past the largest class included) by one
#: of three owner slots; ``fill`` allocates a page's worth of one class,
#: so the page in use fills; ``kfree`` frees one live object; ``drain``
#: frees every live object on one live object's page, so it empties.
_slab_steps = st.lists(st.one_of(
    st.tuples(st.just("kmalloc"),
              st.integers(8, SIZE_CLASSES[-1]) | st.just(SIZE_CLASSES[-1] + 1),
              st.integers(0, 2)),
    st.tuples(st.just("fill"), st.sampled_from(SIZE_CLASSES),
              st.integers(0, 2)),
    st.tuples(st.just("kfree"), st.integers(0, 1 << 16)),
    st.tuples(st.just("drain"), st.integers(0, 1 << 16)),
), max_size=30)


def _observed(slab) -> tuple:
    return (dataclasses.asdict(slab.stats), slab.utilization(),
            slab.collocated_owner_pairs())


def check_against_scanning_page(cls, n_owners: int, steps) -> None:
    slab = cls(BuddyAllocator(512, 0))
    reference = cls(BuddyAllocator(512, 0))

    def on_both(method: str, *args):
        outcomes = []
        for allocator, page in ((slab, slab_mod.SlabPage),
                                (reference, ScanningSlabPage)):
            with mock.patch.object(slab_mod, "SlabPage", page):
                try:
                    outcomes.append(getattr(allocator, method)(*args))
                except ValueError as exc:
                    outcomes.append(repr(exc))
        assert outcomes[0] == outcomes[1], (method, args)
        return outcomes[0]

    live: list[int] = []
    for step in steps:
        kind = step[0]
        if kind in ("kmalloc", "fill"):
            size, owner = step[1], 1 + step[2] % n_owners
            count = PAGE_SIZE // size if kind == "fill" else 1
            for _ in range(count):
                pa = on_both("kmalloc", size, owner)
                if isinstance(pa, int):
                    live.append(pa)
        elif live:
            victim = live[step[1] % len(live)]
            doomed = [pa for pa in live if pa // PAGE_SIZE
                      == victim // PAGE_SIZE] if kind == "drain" \
                else [victim]
            for pa in doomed:
                on_both("kfree", pa)
                live.remove(pa)
        assert _observed(slab) == _observed(reference), step


class TestAgainstScanningPage:
    """Both allocators against themselves built on the scanning page:
    the same addresses, ``SlabStats``, utilization and collocated lines
    after every step."""

    @pytest.mark.parametrize("cls", [SlabAllocator, SecureSlabAllocator])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_owners=st.integers(1, 3), steps=_slab_steps)
    def test_matches_scanning_page(self, cls, n_owners, steps):
        check_against_scanning_page(cls, n_owners, steps)

    @pytest.mark.slow
    @pytest.mark.parametrize("cls", [SlabAllocator, SecureSlabAllocator])
    @settings(max_examples=1000, deadline=None)
    @given(n_owners=st.integers(1, 3), steps=_slab_steps)
    def test_matches_scanning_page_large(self, cls, n_owners, steps):
        check_against_scanning_page(cls, n_owners, steps)
