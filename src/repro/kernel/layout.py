"""Kernel virtual-address-space layout constants.

Mirrors the Linux x86-64 layout the paper relies on (Section 2.3): a
monolithic kernel address space with a *direct map* covering every physical
frame, a text segment, a vmalloc area for kernel stacks, and -- new in
Perspective -- a fixed-offset ISV shadow region where each code page has a
companion page holding one ISV bit per instruction (Section 6.2, Figure 6.1a).
"""

from __future__ import annotations

PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Total physical memory modeled: 32 Ki frames = 128 MiB.
TOTAL_FRAMES = 32 * 1024
PHYS_SIZE = TOTAL_FRAMES * PAGE_SIZE

#: Kernel text segment (where the synthetic kernel image is laid out).
KERNEL_TEXT_BASE = 0xFFFF_F000_0000_0000

#: Fixed VA offset from a kernel code page to its ISV bitmap page
#: (Figure 6.1a).  Chosen larger than any realistic text segment.
ISV_PAGE_OFFSET = 0x0000_0040_0000_0000

#: Direct map: kernel VA ``DIRECT_MAP_BASE + pa`` aliases physical ``pa``
#: for every frame in the system -- the monolithic mapping that makes
#: kernel transient-execution gadgets able to reach *all* memory.
DIRECT_MAP_BASE = 0xFFFF_8880_0000_0000

#: vmalloc area (kernel stacks are allocated here during fork).
VMALLOC_BASE = 0xFFFF_C900_0000_0000

#: Userspace mmap region base.
USER_BASE = 0x0000_5555_0000_0000

#: Frames reserved at boot (kernel text backing, global data, per-cpu
#: areas).  These never flow through the buddy allocator and are the
#: paper's "unknown allocations" (Section 6.1): they belong to no DSV.
BOOT_RESERVED_FRAMES = 64


def direct_map_va(pa: int) -> int:
    """Kernel direct-map virtual address of physical address ``pa``."""
    return DIRECT_MAP_BASE + pa


def direct_map_pa(va: int) -> int:
    """Physical address behind a direct-map VA."""
    return va - DIRECT_MAP_BASE


def pa_of_frame(frame: int) -> int:
    return frame << PAGE_SHIFT
