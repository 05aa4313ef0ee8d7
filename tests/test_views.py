"""Tests for speculation views, ISV pages, the DSVMT, the hardware view
caches, the DSV registry, and the framework wiring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.flavors import FLAVORS
from repro.core.audit import harden_isv
from repro.core.dsv import DSVRegistry
from repro.core.dsvmt import DSVMT, L2_SPAN
from repro.core.framework import Perspective
from repro.core.hardware import ViewCache, isv_block_of
from repro.core.isv import ISVPageTable
from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import CodeLayout, Function, OP_SIZE, nop
from repro.eval.envs import make_env
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.layout import ISV_PAGE_OFFSET, PAGE_SIZE


def make_isv(image, names, ctx=1, source="static"):
    return InstructionSpeculationView(ctx, frozenset(names), image.layout,
                                      source=source)


def page_bits(pages, page_va):
    """The bits ``pages`` holds for the code page at ``page_va``."""
    return [pages.bit_for(page_va + i * OP_SIZE)
            for i in range(PAGE_SIZE // OP_SIZE)]


def per_slot_bits(isv, page_va):
    """The reference answer: ``contains_va`` of every slot of the page."""
    return [isv.contains_va(page_va + i * OP_SIZE)
            for i in range(PAGE_SIZE // OP_SIZE)]


class TestInstructionSpeculationView:
    def test_membership_by_name_and_va(self, image):
        isv = make_isv(image, {"sys_read", "copy_from_user"})
        assert "sys_read" in isv
        assert "sys_write" not in isv
        func = image.layout["sys_read"]
        assert isv.contains_va(func.base_va)
        assert isv.contains_va(func.va_of(len(func) - 1))
        other = image.layout["sys_write"]
        assert not isv.contains_va(other.base_va)

    def test_va_outside_text_not_contained(self, image):
        isv = make_isv(image, {"sys_read"})
        assert not isv.contains_va(0x1000)

    def test_unknown_function_rejected(self, image):
        with pytest.raises(ValueError, match="unknown"):
            make_isv(image, {"no_such_function"})

    def test_shrink_produces_stricter_view(self, image):
        isv = make_isv(image, {"sys_read", "sys_write", "copy_from_user"})
        stricter = isv.shrink({"sys_write"})
        assert "sys_write" not in stricter
        assert "sys_read" in stricter
        assert len(stricter) == 2
        assert stricter.source.endswith("++")

    def test_surface_reduction(self, image):
        isv = make_isv(image, {"sys_read"})
        total = image.total_functions
        assert isv.surface_reduction(total) == pytest.approx(1 - 1 / total)


class TestISVPageTable:
    def test_demand_population(self, image):
        isv = make_isv(image, {"sys_read"})
        pages = ISVPageTable(isv)
        func = image.layout["sys_read"]
        assert not pages.is_populated(func.base_va)
        assert pages.bit_for(func.base_va) is True
        assert pages.is_populated(func.base_va)
        assert pages.populated_pages() == 1

    def test_bits_match_view(self, image):
        isv = make_isv(image, {"sys_read"})
        pages = ISVPageTable(isv)
        inside = image.layout["sys_read"]
        for idx in range(len(inside)):
            assert pages.bit_for(inside.va_of(idx))
        outside = image.layout["sys_write"]
        assert not pages.bit_for(outside.base_va)

    def test_isv_page_va_fixed_offset(self):
        code_va = 0xFFFF_F000_0000_2345
        shadow = ISVPageTable.isv_page_va(code_va)
        assert shadow == (code_va & ~(PAGE_SIZE - 1)) + ISV_PAGE_OFFSET

    def test_invalidate_drops_pages(self, image):
        isv = make_isv(image, {"sys_read"})
        pages = ISVPageTable(isv)
        pages.bit_for(image.layout["sys_read"].base_va)
        pages.invalidate()
        assert pages.populated_pages() == 0

    def test_population_resolves_no_address(self, image, monkeypatch):
        calls = []
        real = CodeLayout.resolve_va
        monkeypatch.setattr(CodeLayout, "resolve_va",
                            lambda self, va: calls.append(va) or real(self, va))
        pages = ISVPageTable(make_isv(image, {"sys_read"}))
        assert pages.bit_for(image.layout["sys_read"].base_va) is True
        assert pages.populated_pages() == 1
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_range_fill_matches_per_slot_answer(self, data):
        stride = data.draw(st.integers(min_value=8, max_value=2048))
        skew = data.draw(st.one_of(st.just(0),
                                   st.integers(min_value=0, max_value=4095)))
        sizes = st.lists(st.integers(min_value=1, max_value=stride - 1),
                         min_size=1, max_size=8)
        layout = CodeLayout(0x40000 + skew, stride_ops=stride)
        for i, n in enumerate(data.draw(sizes)):
            layout.add(Function(f"f{i}", [nop()] * n))
        overlay = layout.overlay()
        for i, n in enumerate(data.draw(sizes.map(lambda s: s[:3]))):
            overlay.add(Function(f"jit{i}", [nop()] * n))
        names = overlay.names()
        keep = data.draw(st.lists(st.booleans(), min_size=len(names),
                                  max_size=len(names)))
        isv = InstructionSpeculationView(
            1, frozenset(n for n, k in zip(names, keep) if k), overlay)
        pages = ISVPageTable(isv)
        slot_bytes = stride * OP_SIZE
        # Every page a slot touches, plus one on either side: before,
        # across, inside and after both text regions.
        code_pages = sorted({page for f in overlay.functions()
                             for page in range(
                                 f.base_va // PAGE_SIZE - 1,
                                 (f.base_va + slot_bytes) // PAGE_SIZE + 2)})
        for page in code_pages:
            assert page_bits(pages, page * PAGE_SIZE) == per_slot_bits(
                isv, page * PAGE_SIZE)
        assert pages.populated_pages() == len(code_pages)

    @pytest.mark.slow
    @pytest.mark.parametrize("scheme", FLAVORS)
    def test_whole_image_fill_matches_per_slot_answer(self, scheme):
        isv = make_env("lebench", scheme).isv
        pages = ISVPageTable(isv)
        layout = isv.layout
        first = layout.text_base // PAGE_SIZE - 1
        last = (layout.text_end - 1) // PAGE_SIZE + 1
        for page in range(first, last + 1):
            assert page_bits(pages, page * PAGE_SIZE) == per_slot_bits(
                isv, page * PAGE_SIZE), hex(page * PAGE_SIZE)
        assert pages.populated_pages() == last - first + 1


class TestDSVMT:
    def test_set_and_lookup(self):
        dsvmt = DSVMT(1)
        dsvmt.set_page(100, True)
        assert dsvmt.lookup(100)
        assert not dsvmt.lookup(101)
        dsvmt.set_page(100, False)
        assert not dsvmt.lookup(100)

    def test_idempotent_set(self):
        dsvmt = DSVMT(1)
        dsvmt.set_page(5, True)
        dsvmt.set_page(5, True)
        assert len(dsvmt) == 1
        dsvmt.set_page(5, False)
        assert len(dsvmt) == 0

    def test_2mb_promotion_short_circuits(self):
        dsvmt = DSVMT(1)
        for frame in range(L2_SPAN):
            dsvmt.set_page(frame, True)
        dsvmt.stats.leaf_lookups = 0
        assert dsvmt.lookup(7)
        assert dsvmt.stats.huge_hits == 1
        assert dsvmt.stats.leaf_lookups == 0

    def test_empty_interior_short_circuits(self):
        dsvmt = DSVMT(1)
        dsvmt.set_page(5000, True)
        dsvmt.stats.leaf_lookups = 0
        assert not dsvmt.lookup(3)  # different L2 entry, empty
        assert dsvmt.stats.leaf_lookups == 0

    @given(st.sets(st.integers(min_value=0, max_value=4000), max_size=80),
           st.sets(st.integers(min_value=0, max_value=4000), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_lookup_equals_membership(self, added, removed):
        dsvmt = DSVMT(1)
        for frame in added:
            dsvmt.set_page(frame, True)
        for frame in removed:
            dsvmt.set_page(frame, False)
        expected = added - removed
        for frame in added | removed | {0, 4001}:
            assert dsvmt.lookup(frame) == (frame in expected)


class TestViewCache:
    def test_miss_fill_hit(self):
        cache = ViewCache("t", entries=8, ways=2)
        assert cache.lookup(1, 100) is None
        cache.fill(1, 100, True)
        assert cache.lookup(1, 100) is True
        cache.fill(1, 101, False)
        assert cache.lookup(1, 101) is False

    def test_asid_tagging_separates_contexts(self):
        cache = ViewCache("t", entries=8, ways=2)
        cache.fill(1, 100, True)
        assert cache.lookup(2, 100) is None

    def test_lru_within_set(self):
        cache = ViewCache("t", entries=2, ways=2)  # one set
        cache.fill(1, 0, True)
        cache.fill(1, 1, True)
        cache.lookup(1, 0)  # 0 becomes MRU
        cache.fill(1, 2, True)  # evicts key 1
        assert cache.lookup(1, 1) is None
        assert cache.lookup(1, 0) is True

    def test_invalidate_asid(self):
        cache = ViewCache("t", entries=8, ways=2)
        cache.fill(1, 0, True)
        cache.fill(2, 0, True)
        assert cache.invalidate_asid(1) == 1
        assert cache.lookup(1, 0) is None
        assert cache.lookup(2, 0) is True

    def test_hit_rate_stat(self):
        cache = ViewCache("t")
        cache.lookup(1, 5)
        cache.fill(1, 5, True)
        cache.lookup(1, 5)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            ViewCache("t", entries=10, ways=4)

    def test_isv_block_key_granularity(self):
        assert isv_block_of(0) == isv_block_of(2047)
        assert isv_block_of(2048) == isv_block_of(0) + 1


class TestDSVRegistry:
    def test_alloc_assigns_ownership(self):
        registry = DSVRegistry()
        registry.on_alloc(10, 4, owner=7)
        for frame in range(10, 14):
            assert registry.owner_of(frame) == 7
            assert registry.frame_in_view(frame, 7)
            assert not registry.frame_in_view(frame, 8)
        assert len(registry.view_for(7)) == 4
        assert registry.dsvmt_for(7).lookup(11)

    def test_free_releases_ownership(self):
        registry = DSVRegistry()
        registry.on_alloc(10, 2, owner=7)
        registry.on_free(10, 2, owner=7)
        assert registry.owner_of(10) is None
        assert not registry.frame_in_view(10, 7)
        assert not registry.dsvmt_for(7).lookup(10)

    def test_unowned_allocations_ignored(self):
        registry = DSVRegistry()
        registry.on_alloc(10, 2, owner=None)
        assert registry.owner_of(10) is None

    def test_attach_wires_buddy_hooks(self):
        registry = DSVRegistry()
        buddy = BuddyAllocator(64, 0)
        registry.attach(buddy)
        frame = buddy.alloc_pages(1, owner=3)
        assert registry.frame_in_view(frame, 3)
        buddy.free_pages(frame)
        assert not registry.frame_in_view(frame, 3)

    def test_unknown_frames_outside_every_view(self):
        registry = DSVRegistry()
        assert not registry.frame_in_view(48, 1)  # the global page frame


class TestPerspectiveFramework:
    def test_replays_existing_allocations(self, kernel):
        proc = kernel.create_process("early")  # before attach
        framework = Perspective(kernel)
        heap_frame = (proc.heap_va - 0xFFFF_8880_0000_0000) // PAGE_SIZE
        assert framework.frame_in_dsv(heap_frame, proc.cgroup.cg_id)

    def test_new_allocations_tracked(self, kernel):
        framework = Perspective(kernel)
        proc = kernel.create_process("late")
        va = kernel.syscall(proc, "mmap", args=(0, PAGE_SIZE)).retval
        frame = proc.aspace.user_frame(va)
        assert framework.frame_in_dsv(frame, proc.cgroup.cg_id)

    def test_boot_reserved_memory_is_unknown(self, kernel):
        framework = Perspective(kernel)
        proc = kernel.create_process("p")
        assert not framework.frame_in_dsv(48, proc.cgroup.cg_id)

    def test_install_isv_and_lookup(self, kernel, image):
        framework = Perspective(kernel)
        isv = make_isv(image, {"sys_read"}, ctx=5)
        framework.install_isv(isv)
        assert framework.isv_for(5) is isv
        assert framework.isv_pages_for(5) is not None
        assert framework.isv_for(99) is None

    def test_shrink_isv_reinstalls_and_invalidates(self, kernel, image):
        framework = Perspective(kernel)
        framework.install_isv(make_isv(image, {"sys_read", "sys_write"},
                                       ctx=5))
        func = image.layout["sys_read"]
        framework.isv_cache.fill(5, isv_block_of(func.base_va), True)
        stricter = framework.shrink_isv(5, {"sys_write"})
        assert "sys_write" not in stricter
        # Hardware entries of the context were dropped.
        assert framework.isv_cache.lookup(
            5, isv_block_of(func.base_va)) is None

    def test_harden_isv_removes_flagged_inside_only(self, kernel, image):
        isv = make_isv(image, {"sys_read", "sys_write"}, ctx=5)
        outcome = harden_isv(isv, frozenset({"sys_write", "drv1_fn0"}))
        assert outcome.flagged_inside == frozenset({"sys_write"})
        assert outcome.functions_removed == 1
        assert "sys_read" in outcome.hardened
