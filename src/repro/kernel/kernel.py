"""The miniature operating system: processes, syscalls, and allocators.

``MiniKernel`` wires the substrates together the way the paper's modified
Linux does (Section 6.1):

* the buddy allocator tags frames with the allocating cgroup and fires
  ownership hooks that the Perspective framework uses to maintain DSVs;
* the secure slab allocator keeps per-cgroup page lists so implicit
  (kmalloc-style) allocations never collocate distrusting contexts;
* system calls dispatch, after an optional seccomp filter, into entry
  functions of the synthetic kernel image executed on the out-of-order
  pipeline -- which is where speculation (and its defenses) happen;
* the tracing subsystem observes committed kernel function entries to
  build dynamic ISV profiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cpu.branch import BranchUnit
from repro.cpu.cache import CacheHierarchy
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import ExecResult, ExecutionContext, Pipeline, \
    PipelineConfig, SpeculationPolicy
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.cgroup import Cgroup, CgroupRegistry
from repro.kernel.image import (
    FOPS_KINDS,
    KernelImage,
    REG_ARG0,
    REG_ARG1,
    REG_ARG2,
    REG_GLOBAL,
    REG_HEAP,
    REG_KSTACK,
    REG_SPIN,
    REG_TASK,
    REG_USERBUF,
    SECRET_OFF,
)
from repro.kernel.layout import (
    BOOT_RESERVED_FRAMES,
    PAGE_SIZE,
    TOTAL_FRAMES,
    USER_BASE,
    direct_map_va,
    pa_of_frame,
)
from repro.kernel.process import (
    KernelMappings,
    OpenFile,
    Process,
    ProcessAddressSpace,
    VmArea,
)
from repro.kernel.seccomp import Action, SeccompFilter, SeccompViolation
from repro.kernel.slab import SecureSlabAllocator, SlabAllocator
from repro.kernel.tracing import KernelTracer
from repro.obs import events as ev
from repro.obs import reqtrace as rt
from repro.reliability.faultplane import fire

#: Frame holding the global kernel data page ("unknown" memory: it belongs
#: to no DSV, so speculative access to it is conservatively fenced).
GLOBAL_PAGE_FRAME = 48

#: Fixed cost of the user->kernel->user transition (trap, swapgs, sysret).
SYSCALL_TRAP_COST = 150.0

#: Kernel stack pages per process (vmalloc-backed, as in Linux).
KERNEL_STACK_PAGES = 4

#: Heap block order per process: 2**5 frames = 128 KiB, covering the
#: context's data (first 64 KiB, walked by fd-scan loops), the
#: flush+reload probe array, and the gadget scratch buffer.
HEAP_ORDER = 5


@dataclass
class SyscallResult:
    """Outcome of one system call."""

    syscall: str
    retval: int
    exec_result: ExecResult | None = None
    denied: bool = False

    @property
    def cycles(self) -> float:
        if self.exec_result is None:
            return 0.0
        return self.exec_result.cycles + SYSCALL_TRAP_COST


@dataclass
class KernelConfig:
    """Kernel-build options."""

    secure_slab: bool = True
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    #: eIBRS-style hardware BTB isolation (bypassable via BHI).
    btb_hardware_isolation: bool = False
    #: Long-lived slab objects allocated per process at creation (dentry /
    #: inode / vma caches).  Real kernels keep slabs dense; without this
    #: population every transient free would empty a page and the
    #: fragmentation and reassignment figures of Section 9.2 would be
    #: meaningless.
    slab_warm_objects: int = 400
    #: Enable the L1 next-line prefetcher (see CacheHierarchy; off by
    #: default -- the calibrated workloads are stride-immune to it).
    prefetcher: bool = False


class MiniKernel:
    """A bootable instance of the miniature OS."""

    def __init__(self, image: KernelImage | None = None,
                 config: KernelConfig | None = None) -> None:
        self.config = config or KernelConfig()
        self.image = image or KernelImage()
        self.memory = MainMemory()
        self.hierarchy = CacheHierarchy(prefetcher=self.config.prefetcher)
        self.branch_unit = BranchUnit(
            hardware_isolation=self.config.btb_hardware_isolation)
        #: Per-instance code view: the shared image plus this kernel's
        #: runtime-loaded programs (the eBPF JIT area).
        self.layout = self.image.layout.overlay()
        self.pipeline = Pipeline(self.layout, self.memory,
                                 self.hierarchy, self.branch_unit,
                                 config=self.config.pipeline)
        self.cgroups = CgroupRegistry()
        self.buddy = BuddyAllocator(TOTAL_FRAMES, BOOT_RESERVED_FRAMES)
        slab_cls = SecureSlabAllocator if self.config.secure_slab \
            else SlabAllocator
        self.slab = slab_cls(self.buddy)
        self.kmappings = KernelMappings()
        self.tracer = KernelTracer()
        self.pipeline.trace_hook = self.tracer.on_function_entry
        from repro.kernel.ebpf import BPFManager
        #: BPF program handles, shared by every manager on this kernel so
        #: that program names never collide in its layout.
        self.bpf_handles = itertools.count(1)
        self.bpf = BPFManager(self)
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        #: Context the core last ran kernel code for (IBPB tracking).
        self._last_kernel_ctx: int | None = None
        self._global_va = direct_map_va(pa_of_frame(GLOBAL_PAGE_FRAME))
        self._install_boot_globals()
        self._seccomp: dict[int, SeccompFilter] = {}
        self.syscall_count = 0
        #: Cumulative simulated kernel cycles across every syscall (trap
        #: plus pipeline), so co-located activity -- e.g. an attacker
        #: tenant's PoC probes -- can be charged to a shared serve clock.
        self.kernel_cycles_total = 0.0
        #: Tenant-switch IBPB ops that faulted and fell back to a full
        #: branch-unit flush (the ``serve-ibpb-drop`` fail-closed path).
        self.ibpb_fault_flushes = 0
        #: Physical frames the OS tagged *non-transient* (ConTExT-style
        #: secret marking).  Pure metadata: only the ``context`` defense
        #: policy consults it, so tagging costs other schemes nothing.
        self.non_transient_frames: set[int] = set()

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def _install_boot_globals(self) -> None:
        """Write global function-pointer tables and constants into the
        boot-reserved global page (the image's "unknown" memory)."""
        base = pa_of_frame(GLOBAL_PAGE_FRAME)
        for offset, func_name in self.image.global_pointer_slots.items():
            self.memory.store(base + offset,
                              self.image.layout[func_name].base_va)
        for offset, value in self.image.global_values.items():
            self.memory.store(base + offset, value)

    @property
    def global_page_va(self) -> int:
        return self._global_va

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def create_process(self, name: str, cgroup: Cgroup | None = None) -> Process:
        """Create a process with its own cgroup (unless one is given), heap
        block, kernel stack, task struct, and a mapped user buffer."""
        if cgroup is None:
            cgroup = self.cgroups.create(f"{name}.{self._next_pid}")
        pid = self._next_pid
        self._next_pid += 1
        aspace = ProcessAddressSpace(self.kmappings)
        proc = Process(pid=pid, name=name, cgroup=cgroup, aspace=aspace)

        # Kernel stack: vmalloc-backed frames, tracked into the DSV (the
        # paper resolves this "unknown" source by explicit tracking).
        for _ in range(KERNEL_STACK_PAGES):
            frame = self.buddy.alloc_pages(0, owner=cgroup.cg_id)
            va = self.kmappings.vmalloc_map(frame)
            if not proc.kernel_stack_frames:
                proc.kernel_stack_va = va
            proc.kernel_stack_frames.append(frame)

        # Heap block (explicit allocation, owner-tagged).
        heap_frame = self.buddy.alloc_pages(HEAP_ORDER, owner=cgroup.cg_id)
        proc.heap_va = direct_map_va(pa_of_frame(heap_frame))

        # task_struct from the slab allocator (implicit allocation).
        proc.task_struct_pa = self.slab.kmalloc(512, owner=cgroup.cg_id)

        # Long-lived kernel object population (dentries, inodes, vmas...);
        # sizes cycle through the common kmalloc classes.
        sizes = (64, 128, 192, 256, 512, 96, 32)
        for i in range(self.config.slab_warm_objects):
            self.slab.kmalloc(sizes[i % len(sizes)], owner=cgroup.cg_id)

        # One user page for copy_from/to_user traffic.
        user_frame = self.buddy.alloc_pages(0, owner=cgroup.cg_id)
        aspace.map_user(USER_BASE, user_frame)

        self.processes[pid] = proc
        return proc

    def destroy_process(self, proc: Process) -> None:
        """exit(): release every resource the process owns."""
        if not proc.alive:
            return
        proc.alive = False
        for fd in list(proc.files):
            self._close_file(proc, fd)
        for vma in list(proc.vmas.values()):
            self._unmap_vma(proc, vma)
        user_frame = proc.aspace.user_frame(USER_BASE)
        if user_frame is not None:
            proc.aspace.unmap_user(USER_BASE)
            self.buddy.free_pages(user_frame)
        for va, frame in [(proc.kernel_stack_va + i * PAGE_SIZE, f)
                          for i, f in enumerate(proc.kernel_stack_frames)]:
            self.kmappings.vmalloc_unmap(va)
            self.buddy.free_pages(frame)
        proc.kernel_stack_frames.clear()
        # NOTE: the warm slab population is intentionally leaked on exit
        # (it models system-wide caches that outlive any process).
        for frame in proc.pt_frames:
            self.buddy.free_pages(frame)
        proc.pt_frames.clear()
        heap_frame = (proc.heap_va - direct_map_va(0)) // PAGE_SIZE
        self.buddy.free_pages(heap_frame)
        self.slab.kfree(proc.task_struct_pa)
        del self.processes[proc.pid]

    def plant_secret(self, proc: Process, secret: bytes) -> int:
        """Store a secret in the process's heap; returns its kernel VA.

        The frames written are tagged non-transient, so the ``context``
        scheme (ConTExT) knows where secrets live; every other scheme
        ignores the tags.
        """
        pa = proc.aspace.translate(proc.heap_va + SECRET_OFF)
        self.memory.store_bytes(pa, secret)
        self.tag_non_transient(pa, len(secret))
        return proc.heap_va + SECRET_OFF

    def tag_non_transient(self, pa: int, length: int = 1) -> None:
        """Mark the frames covering ``[pa, pa+length)`` non-transient
        (ConTExT's OS interface for secret memory)."""
        first = pa // PAGE_SIZE
        last = (pa + max(length, 1) - 1) // PAGE_SIZE
        for frame in range(first, last + 1):
            self.non_transient_frames.add(frame)

    # ------------------------------------------------------------------
    # Seccomp
    # ------------------------------------------------------------------

    def install_seccomp(self, proc: Process, filt: SeccompFilter) -> None:
        self._seccomp[proc.pid] = filt

    # ------------------------------------------------------------------
    # System calls
    # ------------------------------------------------------------------

    def syscall(self, proc: Process, name: str,
                args: tuple[int, ...] = (), spin: int = 0) -> SyscallResult:
        """Perform a system call on behalf of ``proc``.

        Runs the seccomp filter, applies the semantic side effects
        (allocations, fd table changes), then executes the syscall's kernel
        entry function on the pipeline under the active defense policy.
        """
        spec = self.image.syscalls[name]
        filt = self._seccomp.get(proc.pid)
        if filt is not None:
            action = filt.evaluate(name, args)
            if action is Action.KILL:
                self.destroy_process(proc)
                raise SeccompViolation(name, proc.pid)
            if action is Action.ERRNO:
                return SyscallResult(syscall=name, retval=-1, denied=True)

        self.syscall_count += 1
        self.tracer.record_syscall(proc.cgroup.cg_id, name)
        handler = getattr(self, f"_sem_{name}", None)
        retval, new_page_va = 0, proc.heap_va
        if handler is not None:
            retval, new_page_va = handler(proc, args)

        regs = self._regs_for(proc, spec, args, spin, new_page_va)
        ctx_id = proc.cgroup.cg_id
        if ctx_id != self._last_kernel_ctx:
            if fire("serve-ibpb-drop"):
                # The IBPB microcode op faulted mid-switch.  Fail closed:
                # a *full* branch-unit flush (conditional + BTB + RSB) is
                # strictly stronger than the barrier it replaces, so
                # cross-tenant (mis)training can never survive the fault
                # -- the incoming tenant just pays colder predictors.
                self.branch_unit.reset()
                self.ibpb_fault_flushes += 1
                ev.emit("fault-fallback", context=ctx_id,
                        reason="ibpb-drop-full-flush",
                        scheme=self.pipeline.policy.name)
            elif self.pipeline.policy.flush_branch_state_on_context_switch():
                # IBPB on context switch: drop indirect-predictor state so
                # cross-context (mis)training cannot carry over.
                self.branch_unit.btb.reset()
                self.branch_unit.rsb.clear()
            self._last_kernel_ctx = ctx_id
        context = ExecutionContext(
            context_id=ctx_id, domain="kernel",
            address_space=proc.aspace, initial_regs=regs)
        exec_result = self.pipeline.run(spec.entry, context,
                                        charge_kernel_entry=True)
        # Request tracing: the kernel-function step on the open request
        # (free when no recorder/request is active).
        rt.step("kernel_fn", spec.entry, exec_result.cycles,
                context=ctx_id, scheme=self.pipeline.policy.name)
        result = SyscallResult(syscall=name, retval=retval,
                               exec_result=exec_result)
        self.kernel_cycles_total += result.cycles
        return result

    def _regs_for(self, proc: Process, spec, args: tuple[int, ...],
                  spin: int, new_page_va: int) -> dict[str, int]:
        regs = {
            REG_ARG0: args[0] if len(args) > 0 else 0,
            REG_ARG1: args[1] if len(args) > 1 else 0,
            REG_ARG2: args[2] if len(args) > 2 else 0,
            REG_USERBUF: USER_BASE,
            REG_SPIN: max(1, spin),
            REG_KSTACK: proc.kernel_stack_va,
            REG_TASK: direct_map_va(proc.task_struct_pa & ~(PAGE_SIZE - 1)),
            REG_GLOBAL: self._global_va,
            REG_HEAP: proc.heap_va,
            "r8": new_page_va,
            "r4": 0,
        }
        if spec.uses_fops:
            fd = args[0] if args else 0
            file = proc.files.get(fd)
            kind = file.fops_kind if file is not None else FOPS_KINDS[0]
            opname = "write" if "write" in spec.name or \
                spec.name.startswith("send") else "read"
            regs["r4"] = self.image.fops_slot_offset(kind, opname)
        return regs

    # ------------------------------------------------------------------
    # Syscall semantics (side effects; each returns (retval, new_page_va))
    # ------------------------------------------------------------------

    def _sem_open(self, proc: Process, args) -> tuple[int, int]:
        kind = FOPS_KINDS[(args[0] if args else 0) % len(FOPS_KINDS)]
        return self._open_file(proc, kind), proc.heap_va

    def _sem_socket(self, proc: Process, args) -> tuple[int, int]:
        return self._open_file(proc, "sock"), proc.heap_va

    def _sem_accept(self, proc: Process, args) -> tuple[int, int]:
        return self._open_file(proc, "sock"), proc.heap_va

    def _sem_pipe(self, proc: Process, args) -> tuple[int, int]:
        read_end = self._open_file(proc, "pipe")
        self._open_file(proc, "pipe")
        return read_end, proc.heap_va

    def _sem_dup(self, proc: Process, args) -> tuple[int, int]:
        fd = args[0] if args else 0
        file = proc.files.get(fd)
        kind = file.fops_kind if file is not None else FOPS_KINDS[0]
        return self._open_file(proc, kind), proc.heap_va

    def _sem_close(self, proc: Process, args) -> tuple[int, int]:
        fd = args[0] if args else 0
        if fd in proc.files:
            self._close_file(proc, fd)
            return 0, proc.heap_va
        return -1, proc.heap_va

    def _open_file(self, proc: Process, kind: str) -> int:
        fd = proc.alloc_fd()
        backing = self.slab.kmalloc(256, owner=proc.cgroup.cg_id)
        proc.files[fd] = OpenFile(fd=fd, fops_kind=kind, backing_pa=backing)
        return fd

    def _close_file(self, proc: Process, fd: int) -> None:
        file = proc.files.pop(fd)
        self.slab.kfree(file.backing_pa)

    def _sem_mmap(self, proc: Process, args) -> tuple[int, int]:
        """mmap(addr_hint, length) with MAP_POPULATE semantics (the paper's
        simplifying assumption in Section 5.2)."""
        length = args[1] if len(args) > 1 else PAGE_SIZE
        pages = max(1, (length + PAGE_SIZE - 1) // PAGE_SIZE)
        va = self._next_mmap_va(proc)
        frames = []
        for i in range(pages):
            frame = self.buddy.alloc_pages(0, owner=proc.cgroup.cg_id)
            proc.aspace.map_user(va + i * PAGE_SIZE, frame)
            frames.append(frame)
        proc.vmas[va] = VmArea(va=va, length=pages * PAGE_SIZE, frames=frames)
        return va, direct_map_va(pa_of_frame(frames[0]))

    def _next_mmap_va(self, proc: Process) -> int:
        va = USER_BASE + (1 << 30)
        for vma in proc.vmas.values():
            end = vma.va + vma.length
            if end > va:
                va = end
        return va

    def _sem_munmap(self, proc: Process, args) -> tuple[int, int]:
        va = args[0] if args else 0
        vma = proc.vmas.get(va)
        if vma is None:
            return -1, proc.heap_va
        self._unmap_vma(proc, vma)
        return 0, proc.heap_va

    def _unmap_vma(self, proc: Process, vma: VmArea) -> None:
        for i in range(len(vma.frames)):
            proc.aspace.unmap_user(vma.va + i * PAGE_SIZE)
        for head in vma.free_heads:
            self.buddy.free_pages(head)
        del proc.vmas[vma.va]

    def _sem_brk(self, proc: Process, args) -> tuple[int, int]:
        return self._fault_around(proc, self._next_mmap_va(proc))

    def _sem_page_fault(self, proc: Process, args) -> tuple[int, int]:
        """Demand-paging fault with fault-around: allocate and map an
        order-2 block (4 pages), associated with the faulting process's
        DSV."""
        va = args[0] if args else self._next_mmap_va(proc)
        return self._fault_around(proc, va)

    #: Pages mapped per demand fault (Linux's fault-around, reduced).
    FAULT_AROUND_PAGES = 4

    def _fault_around(self, proc: Process, va: int) -> tuple[int, int]:
        head = self.buddy.alloc_pages(2, owner=proc.cgroup.cg_id)
        frames = [head + i for i in range(self.FAULT_AROUND_PAGES)]
        for i, frame in enumerate(frames):
            proc.aspace.map_user(va + i * PAGE_SIZE, frame)
        proc.vmas.setdefault(va, VmArea(
            va=va, length=self.FAULT_AROUND_PAGES * PAGE_SIZE,
            frames=frames, free_heads=[head]))
        return va, direct_map_va(pa_of_frame(head))

    def _sem_fork(self, proc: Process, args) -> tuple[int, int]:
        """fork(): child gets its own kernel stack, task struct and page
        tables; user pages are shared copy-on-write.  args[0] (optional)
        scales the page-table copy cost (big-fork)."""
        child = self.create_process(f"{proc.name}-child", cgroup=proc.cgroup)
        copied_pages = max(1, proc.aspace.user_pages() // 8)
        for _ in range(min(copied_pages, 32)):
            child.pt_frames.append(self.buddy.alloc_pages(
                0, owner=proc.cgroup.cg_id))
        first = child.pt_frames[0]
        return child.pid, direct_map_va(pa_of_frame(first))

    def _sem_exit(self, proc: Process, args) -> tuple[int, int]:
        # Resources are released before the kernel path executes, matching
        # do_exit tearing the task down while running on its own stack.
        self.destroy_process(proc)
        return 0, proc.heap_va

    def _sem_poll(self, proc: Process, args) -> tuple[int, int]:
        """poll(): the paper's canonical *implicit* allocation (Figure 5.2):
        kmalloc'd fd metadata lives only for the duration of the call."""
        nfds = max(1, args[0] if args else 1)
        scratch = self.slab.kmalloc(min(4096, 16 * nfds),
                                    owner=proc.cgroup.cg_id)
        self.slab.kfree(scratch)
        return 0, proc.heap_va

    _sem_select = _sem_poll
    _sem_epoll_wait = _sem_poll

    def _sem_sendmsg(self, proc: Process, args) -> tuple[int, int]:
        """sendmsg(): large gather buffers come from the kmalloc-2k class,
        which has no long-lived population -- so these transient pages
        empty on free and return to the buddy allocator, the page-level
        domain-reassignment events of Section 9.2."""
        scratch = self.slab.kmalloc(2048, owner=proc.cgroup.cg_id)
        self.slab.kfree(scratch)
        return args[1] if len(args) > 1 else 0, proc.heap_va

    _sem_recvmsg = _sem_sendmsg

    def _sem_execve(self, proc: Process, args) -> tuple[int, int]:
        # Fresh image: recycle the user buffer page and allocate anew,
        # plus an order-2 block for the new image's first pages.
        frame = self.buddy.alloc_pages(0, owner=proc.cgroup.cg_id)
        old = proc.aspace.user_frame(USER_BASE)
        proc.aspace.map_user(USER_BASE, frame)
        if old is not None:
            self.buddy.free_pages(old)
        _, new_page_va = self._fault_around(proc, self._next_mmap_va(proc))
        return 0, new_page_va
