"""Synthetic kernel image: the reproduction's stand-in for Linux's text.

The paper's analyses run over the real Linux kernel (28K functions, with
1533 potential transient-execution gadgets found by Kasper).  Here we
generate a *synthetic kernel image*: a deterministic population of micro-op
functions with

* a system-call surface (~45 syscalls) whose entry functions call into
  per-subsystem implementation trees plus shared helpers,
* indirect-call dispatch through function-pointer tables living in global
  (boot-reserved, "unknown") memory -- the file_operations pattern that
  makes static call graphs incomplete (Figure 5.3a),
* *error paths*: direct callees that normal executions never take, so
  static ISVs include them but dynamic ISVs do not (Section 5.3),
* *rare paths*: argument-triggered calls that profiling runs miss, so
  dynamic ISVs occasionally fence benign execution (Section 9.2's ISV
  fence rate),
* a long tail of driver/module functions unreachable from any syscall --
  the bulk of the passive attack surface ISVs remove (Table 8.1), and
* a seeded population of transient-execution gadgets in the paper's
  MDS/Port/Cache class ratios (805/509/219 of 1533), enriched in
  commonly-reachable code as real CVEs are (Table 4.1 discusses gadgets in
  both hot paths like ptrace/eBPF and cold drivers).

Scale: 2,800 functions -- a 10x-scaled Linux keeping the paper's *ratios*
(ISVs cover ~5-10% of functions, the gadget search space shrinks 28K -> 1.4K
in the paper and 2.8K -> ~0.14-0.28K here).

Everything is generated from a single seed; two images built with the same
config are identical, so analyses, attacks and benchmarks are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.cpu.isa import (
    AluOp,
    CodeLayout,
    Function,
    MicroOp,
    Op,
    alu,
    br,
    call,
    icall,
    jmp,
    kret,
    li,
    load,
    ret,
    store,
)
from repro.kernel.layout import KERNEL_TEXT_BASE

# ---------------------------------------------------------------------------
# Register conventions (see module docstring of repro.cpu.isa)
# ---------------------------------------------------------------------------
#: Syscall arguments (attacker-controllable data).
REG_ARG0, REG_ARG1, REG_ARG2 = "r0", "r1", "r2"
#: Scratch registers generated bodies may clobber.  r3 is reserved for
#: loop counters and r4 for the fops slot offset, so generated code never
#: writes them (it may read them).
SCRATCH = ("r3", "r4", "r5", "r6", "r7", "r8", "r9")
WRITABLE_SCRATCH = ("r5", "r6", "r7", "r8")
#: User buffer VA for copy_from/to_user-style accesses.
REG_USERBUF = "r10"
#: Iteration count for kernel-spinning syscalls (select/poll/epoll).
REG_SPIN = "r11"
#: Kernel stack VA (vmalloc; tracked into the process DSV).
REG_KSTACK = "r12"
#: task_struct VA (secure-slab object owned by the context).
REG_TASK = "r13"
#: Global/unknown kernel data page VA (boot-reserved: belongs to NO DSV).
REG_GLOBAL = "r14"
#: Context-owned heap page VA in the direct map (buddy-allocated).
REG_HEAP = "r15"

#: Value of ``r1`` that triggers an entry function's rare path.
RARE_PATH_MAGIC = 0x5A5A

# Offsets of well-known objects inside the global data page.
GLOBAL_ARRAY1_SIZE_OFF = 0x40  # the Spectre-v1 bounds value
GLOBAL_FOPS_TABLE_OFF = 0x100  # function-pointer table (8 bytes/slot)
#: Offset within a context's heap region where the flush+reload probe
#: array lives (256 cache lines).  Only the hand-written PoC gadgets
#: transmit here; generated code never touches it (the fd-scan loops walk
#: the first 64 KiB only), so the channel is noise-free for the receiver.
PROBE_ARRAY_OFF = 0x10000
#: Transmit buffer used by the *generated* gadget population (scanner
#: fodder); distinct from the PoC probe array.
GADGET_SCRATCH_OFF = 0x14000
#: Offset within a context's heap region where its secret byte sits.
SECRET_OFF = 0x240

#: File-operation families dispatched through the global pointer table.
FOPS_KINDS = ("ext4", "pipe", "sock", "proc", "tmpfs", "dev")


@dataclass
class ImageConfig:
    """Knobs controlling image generation (defaults reproduce the paper's
    ratios at 1/10 Linux scale)."""

    seed: int = 20240759
    total_functions: int = 2800
    n_helpers: int = 55
    #: Gadget population at 1/10 Linux scale (Kasper's 1533 findings:
    #: 805 MDS / 509 Port / 219 Cache).  Scaling the gadget count with the
    #: function count preserves the *density* that drives both the Table
    #: 8.2 fractions and the cost of excluding flagged functions (ISV++).
    gadget_total: int = 153
    gadget_mds: int = 80
    gadget_port: int = 51
    gadget_cache: int = 22
    #: Factor to scale reported gadget counts back to paper scale.
    gadget_report_scale: int = 10
    #: Gadget-placement weight multiplier for syscall-reachable functions
    #: relative to driver functions (real gadgets skew toward hot code).
    reachable_gadget_weight: float = 2.7
    #: Ops per driver function (they only matter as scan/attack surface).
    driver_body_ops: int = 12


@dataclass
class FunctionInfo:
    """Ground-truth metadata about one kernel function."""

    name: str
    role: str  # entry | impl | leaf | error | rare | helper | fops | driver
    syscall: str | None = None
    #: Covert-channel classes of the gadgets embedded in this function
    #: ("mds" / "port" / "cache"), in body order.  Hot kernel functions
    #: often contain several distinct gadgets, which is why ISVs covering
    #: ~9% of functions still hold 13-22% of Kasper's findings.
    gadgets: tuple[str, ...] = ()
    #: Statically-visible direct callees (CALL ops).
    callees: tuple[str, ...] = ()
    #: Targets reachable only through indirect calls here.
    indirect_callees: tuple[str, ...] = ()

    @property
    def gadget_class(self) -> str | None:
        """Primary gadget class (None when the function is clean)."""
        return self.gadgets[0] if self.gadgets else None


@dataclass
class SyscallSpec:
    """One system call: entry point plus behavioural class."""

    nr: int
    name: str
    entry: str
    #: tiny | io | spin | alloc | net -- drives workload cost profiles.
    weight_class: str
    #: Whether the entry honours REG_SPIN as an iteration count.
    spin: bool = False
    #: Whether the entry dispatches through the fops pointer table.
    uses_fops: bool = False


#: (name, class, spin, uses_fops) for the modeled syscall surface.
_SYSCALL_CATALOG: tuple[tuple[str, str, bool, bool], ...] = (
    ("read", "io", False, True),
    ("write", "io", False, True),
    ("pread64", "io", False, True),
    ("pwrite64", "io", False, True),
    ("readv", "io", False, True),
    ("writev", "io", False, True),
    ("open", "io", False, False),
    ("close", "tiny", False, False),
    ("stat", "io", False, False),
    ("fstat", "tiny", False, False),
    ("lseek", "tiny", False, False),
    ("mmap", "alloc", False, False),
    ("munmap", "alloc", False, False),
    ("brk", "alloc", False, False),
    ("mprotect", "alloc", False, False),
    ("page_fault", "alloc", False, False),  # exception entry, not a syscall
    ("ioctl", "io", False, False),
    ("access", "tiny", False, False),
    ("pipe", "io", False, False),
    ("select", "spin", True, False),
    ("poll", "spin", True, False),
    ("epoll_create", "tiny", False, False),
    ("epoll_ctl", "tiny", False, False),
    ("epoll_wait", "spin", True, False),
    ("dup", "tiny", False, False),
    ("socket", "net", False, False),
    ("connect", "net", False, False),
    ("accept", "net", False, False),
    ("sendto", "net", False, True),
    ("recvfrom", "net", False, True),
    ("sendmsg", "net", False, True),
    ("recvmsg", "net", False, True),
    ("bind", "net", False, False),
    ("listen", "tiny", False, False),
    ("fork", "alloc", False, False),
    ("execve", "alloc", False, False),
    ("exit", "tiny", False, False),
    ("wait4", "tiny", False, False),
    ("kill", "tiny", False, False),
    ("getpid", "tiny", False, False),
    ("getuid", "tiny", False, False),
    ("futex", "spin", True, False),
    ("sched_yield", "tiny", False, False),
    ("nanosleep", "tiny", False, False),
    ("getdents", "io", False, False),
    ("fcntl", "tiny", False, False),
    # Broader POSIX surface: unused by the evaluated workloads (so the
    # calibration is untouched) but part of the kernel's attack surface
    # and of what static binary analysis may drag into an ISV.
    ("uname", "tiny", False, False),
    ("gettimeofday", "tiny", False, False),
    ("clock_gettime", "tiny", False, False),
    ("getrusage", "tiny", False, False),
    ("setsockopt", "net", False, False),
    ("getsockopt", "net", False, False),
    ("shutdown", "net", False, False),
    ("chdir", "tiny", False, False),
    ("getcwd", "tiny", False, False),
    ("mkdir", "io", False, False),
    ("unlink", "io", False, False),
    ("rename", "io", False, False),
    ("symlink", "io", False, False),
    ("readlink", "io", False, False),
    ("chmod", "tiny", False, False),
    ("umask", "tiny", False, False),
)

#: Shared helper names (the kernel's hot common code).
_HELPER_NAMES = (
    "copy_from_user", "copy_to_user", "kmalloc", "kfree", "fget", "fput",
    "mutex_lock", "mutex_unlock", "spin_lock", "spin_unlock",
    "get_current", "capable", "security_hook", "audit_log",
    "rcu_read_lock", "rcu_read_unlock", "dget", "dput", "iget", "iput",
    "alloc_pages_helper", "free_pages_helper", "lru_add", "lru_del",
    "wake_up", "wait_event", "schedule_helper", "preempt_disable",
    "preempt_enable", "memset_k", "memcpy_k", "strncpy_k",
    "atomic_inc", "atomic_dec", "refcount_get", "refcount_put",
    "list_add", "list_del", "hash_lookup", "hash_insert",
    "signal_pending", "task_lock", "task_unlock", "pid_lookup",
    "cred_get", "cred_put", "ns_get", "ns_put", "timer_add",
    "timer_del", "workqueue_add", "vfs_perm", "path_lookup",
    "dcache_lookup", "inode_perm",
)


class KernelImage:
    """The generated kernel: code layout + ground-truth metadata."""

    def __init__(self, config: ImageConfig | None = None) -> None:
        self.config = config or ImageConfig()
        self.layout = CodeLayout(KERNEL_TEXT_BASE)
        self.info: dict[str, FunctionInfo] = {}
        self.syscalls: dict[str, SyscallSpec] = {}
        self.syscall_by_nr: dict[int, SyscallSpec] = {}
        #: family -> list of implementing function names (FOPS dispatch).
        self.fops_impls: dict[str, list[str]] = {}
        #: Writes to install into the global data page at boot:
        #: offset -> function name whose base VA must be stored there.
        self.global_pointer_slots: dict[int, str] = {}
        #: Plain values to install into the global page at boot.
        self.global_values: dict[int, int] = {GLOBAL_ARRAY1_SIZE_OFF: 64}
        #: Functions the gadget population must not touch: hand-written
        #: PoC scaffolding, and the innermost copy/scan loops (real Kasper
        #: findings sit in handler/validation code, not in the tight
        #: memcpy-style loops).
        self._gadget_excluded: set[str] = set()
        self._build()

    # ------------------------------------------------------------------
    # Queries used by analyses and experiments
    # ------------------------------------------------------------------

    @property
    def total_functions(self) -> int:
        return len(self.info)

    def gadget_functions(self, gadget_class: str | None = None) -> list[str]:
        """Functions containing at least one gadget (of the given class)."""
        return [name for name, info in self.info.items()
                if info.gadgets
                and (gadget_class is None or gadget_class in info.gadgets)]

    def gadget_count(self, gadget_class: str | None = None) -> int:
        """Total embedded gadgets (of the given class) across the image."""
        return sum(
            len(info.gadgets) if gadget_class is None
            else sum(1 for g in info.gadgets if g == gadget_class)
            for info in self.info.values())

    def direct_call_graph(self) -> dict[str, tuple[str, ...]]:
        """Statically-visible call edges only (what radare2-style binary
        analysis can recover; indirect edges are invisible)."""
        return {name: info.callees for name, info in self.info.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.config.seed}:{tag}")

    def _build(self) -> None:
        self._build_helpers()
        self._build_fops()
        self._build_syscalls()
        self._build_poc_functions()
        self._build_drivers()
        self._place_gadgets()
        self._finalize_layout()

    def _recompute_callees(self, name: str) -> None:
        """Refresh call-graph metadata after splicing ops into a body."""
        func = self.layout[name]
        callees = tuple(op.callee for op in func.body
                        if op.callee is not None)
        func.callees = callees
        self.info[name].callees = callees

    def _add(self, name: str, role: str, body: list[MicroOp],
             syscall: str | None = None,
             indirect_callees: tuple[str, ...] = ()) -> None:
        callees = tuple(op.callee for op in body
                        if op.callee is not None)
        func = Function(name=name, body=body, callees=callees,
                        indirect_callees=indirect_callees)
        self.layout.add(func)
        self.info[name] = FunctionInfo(
            name=name, role=role, syscall=syscall, callees=callees,
            indirect_callees=indirect_callees)

    # -- body generation helpers ---------------------------------------

    def _gen_segment(self, rng: random.Random, out: list[MicroOp],
                     n_ops: int) -> None:
        """Emit ~n_ops of generic kernel code: loads from the context's
        bases, dependent ALU work, and forward branches whose conditions
        derive from recently loaded data (error/flag checks follow loads
        in real kernel code, which is what couples the load stream into
        the branch stream under restrictive speculation schemes)."""
        bases = (REG_TASK, REG_HEAP, REG_HEAP, REG_KSTACK, REG_GLOBAL,
                 REG_TASK, REG_HEAP, REG_GLOBAL, REG_USERBUF)
        emitted = 0
        last_load_dst: str | None = None
        while emitted < n_ops:
            choice = rng.random()
            if choice < 0.30:
                base = rng.choice(bases)
                offset = rng.randrange(0, 3968, 8)
                dst = rng.choice(WRITABLE_SCRATCH)
                out.append(load(dst, base, imm=offset))
                last_load_dst = dst
                emitted += 1
            elif choice < 0.50 and emitted + 4 <= n_ops:
                # Flag check on the most recent load's value, skipping a
                # scratch shadow block.  Deterministic per address, so the
                # predictor trains on it.
                if last_load_dst is not None and rng.random() < 0.6:
                    cond_src = last_load_dst
                else:
                    cond_src = rng.choice(SCRATCH[1:])
                out.append(alu("r6", AluOp.AND, cond_src, imm=1))
                branch_at = len(out)
                out.append(br("r6", target=-1))
                for _ in range(rng.randint(1, 2)):
                    out.append(load("r9", rng.choice(
                        (REG_TASK, REG_HEAP, REG_GLOBAL)),
                        imm=rng.randrange(0, 3968, 8)))
                out[branch_at] = br("r6", target=len(out))
                last_load_dst = None
                emitted += 4
            else:
                a = rng.choice(SCRATCH)
                dst = rng.choice(WRITABLE_SCRATCH)
                op_kind = rng.choice(
                    (AluOp.ADD, AluOp.XOR, AluOp.AND, AluOp.SHR))
                out.append(alu(dst, op_kind, a, imm=rng.randrange(1, 255)))
                emitted += 1

    def _gen_loop(self, rng: random.Random, out: list[MicroOp],
                  count_reg_or_imm, body_ops: int) -> None:
        """Emit a counted loop; count comes from a register (spin syscalls)
        or an immediate."""
        if isinstance(count_reg_or_imm, str):
            out.append(alu("r3", AluOp.MOV, count_reg_or_imm))
        else:
            out.append(li("r3", count_reg_or_imm))
        loop_start = len(out)
        # Loop body: a load whose address varies with the counter feeding
        # a data-dependent branch (the fd-state check of a select/poll
        # scan).  Under FENCE-style schemes the load may not issue until
        # the previous iteration's branch resolves, whose condition waited
        # on the previous load: the resulting serialization chain is what
        # makes kernel-spinning syscalls catastrophically slow (the 228%
        # select/poll overheads of Figure 9.2).
        # Page-strided scan: successive fd entries live one page apart (a
        # sparse fd table), so the lines conflict in one L1 set and the
        # scan misses to L2 every iteration once the set cycles -- the
        # access pattern that makes Delay-on-Miss as slow as FENCE here.
        out.append(alu("r5", AluOp.SHL, "r3", imm=12))
        out.append(alu("r5", AluOp.AND, "r5", imm=0xF000))
        out.append(alu("r6", AluOp.ADD, REG_HEAP, "r5"))
        out.append(load("r7", "r6", imm=0x840))
        out.append(alu("r8", AluOp.AND, "r7", imm=1))
        cond_branch_at = len(out)
        out.append(br("r8", target=-1))
        out.append(load("r9", REG_TASK, imm=rng.randrange(0, 3968, 8)))
        out[cond_branch_at] = br("r8", target=len(out))
        extra = max(0, body_ops - 10)
        self._gen_segment(rng, out, extra)
        out.append(alu("r3", AluOp.SUB, "r3", imm=1))
        out.append(br("r3", target=loop_start))

    def _gen_helper_body(self, rng: random.Random) -> list[MicroOp]:
        out: list[MicroOp] = []
        self._gen_segment(rng, out, rng.randint(12, 30))
        out.append(ret())
        return out

    # -- kernel sections -------------------------------------------------

    def _build_helpers(self) -> None:
        for name in _HELPER_NAMES[:self.config.n_helpers]:
            self._add(name, "helper", self._gen_helper_body(self._rng(name)))

    def _build_fops(self) -> None:
        """File-operation implementations + the global pointer table."""
        slot = 0
        for kind in FOPS_KINDS:
            impls = []
            for opname in ("read", "write"):
                name = f"{kind}_{opname}"
                rng = self._rng(name)
                out: list[MicroOp] = []
                self._gen_segment(rng, out, rng.randint(18, 40))
                for helper in rng.sample(
                        ("memcpy_k", "rcu_read_lock", "rcu_read_unlock",
                         "atomic_inc"), 2):
                    out.append(call(helper))
                self._gen_segment(rng, out, rng.randint(10, 22))
                out.append(ret())
                self._add(name, "fops", out)
                impls.append(name)
                self.global_pointer_slots[
                    GLOBAL_FOPS_TABLE_OFF + slot * 8] = name
                slot += 1
            self.fops_impls[kind] = impls

    def fops_slot_offset(self, kind: str, opname: str) -> int:
        """Global-page offset of the pointer to ``<kind>_<opname>``."""
        target = f"{kind}_{opname}"
        for offset, name in self.global_pointer_slots.items():
            if name == target:
                return offset
        raise KeyError(target)

    def _build_syscalls(self) -> None:
        nr = 0
        for name, weight_class, spin, uses_fops in _SYSCALL_CATALOG:
            entry = f"sys_{name}"
            self._build_one_syscall(name, entry, weight_class, spin,
                                    uses_fops)
            spec = SyscallSpec(nr=nr, name=name, entry=entry,
                               weight_class=weight_class, spin=spin,
                               uses_fops=uses_fops)
            self.syscalls[name] = spec
            self.syscall_by_nr[nr] = spec
            nr += 1

    def _build_one_syscall(self, name: str, entry: str, weight_class: str,
                           spin: bool, uses_fops: bool) -> None:
        rng = self._rng(entry)

        # Implementation tree: two impl functions, one leaf each (plus the
        # shared-helper fan-in), keeping per-syscall private functions near
        # Linux's ratio of syscall-reachable code to total kernel text.
        impl_names = []
        for i in range(2):
            leaves = []
            for j in range(1):
                leaf = f"{name}_leaf{i}{j}"
                leaf_rng = self._rng(leaf)
                out: list[MicroOp] = []
                if (spin or weight_class in ("io", "net", "alloc")) \
                        and i == 0 and j == 0:
                    self._gadget_excluded.add(leaf)
                if spin and i == 0 and j == 0:
                    # The kernel-spinning inner loop (fd scan in
                    # select/poll/epoll): iteration count from userspace.
                    self._gen_loop(leaf_rng, out, REG_SPIN, body_ops=11)
                elif weight_class in ("io", "net") and i == 0 and j == 0:
                    # copy_{from,to}_user-style loop: trip count scales
                    # with the requested transfer size (r11), so big-read
                    # and big-write spend proportionally longer in-kernel.
                    # Each chunk re-checks a loaded state word (fault
                    # pending / short copy), coupling the load stream into
                    # the branch stream as copy_from_user's access_ok /
                    # exception checks do.
                    out.append(alu("r3", AluOp.MOV, REG_SPIN))
                    loop_start = len(out)
                    # Two copy chunks per fault/short-copy check.
                    for chunk in (0, 1):
                        out.append(alu("r5", AluOp.SHL, "r3", imm=3))
                        out.append(alu("r5", AluOp.AND, "r5",
                                       imm=0xF80 | (chunk << 3)))
                        out.append(alu("r6", AluOp.ADD, REG_USERBUF, "r5"))
                        out.append(load("r7", "r6"))
                        out.append(alu("r6", AluOp.ADD, REG_HEAP, "r5"))
                        out.append(store("r6", "r7"))
                    out.append(alu("r8", AluOp.AND, "r7", imm=1))
                    skip_branch_at = len(out)
                    out.append(br("r8", target=-1))
                    out.append(load("r9", REG_TASK, imm=64))
                    out[skip_branch_at] = br("r8", target=len(out))
                    out.append(alu("r3", AluOp.SUB, "r3", imm=2))
                    out.append(alu("r8", AluOp.CMPLT, "r3", imm=1))
                    out.append(alu("r8", AluOp.XOR, "r8", imm=1))
                    out.append(br("r8", target=loop_start))
                    # Post-transfer accounting against kernel-global
                    # counters (page-cache / socket-buffer statistics):
                    # global state belongs to no DSV, so Perspective pays
                    # one bounded fence chain per I/O call here -- the DSV
                    # share of its application overhead.
                    out.append(load("r9", REG_GLOBAL, imm=0x900))
                    out.append(alu("r8", AluOp.AND, "r9", imm=1))
                    acct_branch_at = len(out)
                    out.append(br("r8", target=-1))
                    out.append(load("r9", REG_GLOBAL, imm=0x940))
                    out[acct_branch_at] = br("r8", target=len(out))
                elif weight_class == "alloc" and i == 0 and j == 0:
                    # Page-zeroing / pte-fill loop over fresh allocations:
                    # loads target the *new page* base handed in r8 by the
                    # impl, so DSVMT-cold pages are exercised (Section 9.1,
                    # big-fork / page-fault overhead).  The pte-state check
                    # couples each chunk's load into the branch stream.
                    # Walks the 4 pages of the freshly-allocated block
                    # (fault-around granularity): each page's struct-page
                    # update reads the mem_map array -- kernel-global,
                    # "unknown" memory outside every DSV -- and its state
                    # bits gate the next step.  This is the paper's
                    # big-fork / page-fault DSV overhead and the Section
                    # 9.2 unknown-allocation sensitivity.
                    out.append(alu("r5", AluOp.MOV, "r8"))
                    out.append(li("r3", 4))
                    loop_start = len(out)
                    out.append(load("r7", "r5"))
                    out.append(store("r5", "r7", imm=8))
                    out.append(alu("r6", AluOp.SHL, "r3", imm=5))
                    out.append(alu("r6", AluOp.ADD, REG_GLOBAL, "r6"))
                    out.append(load("r9", "r6", imm=0x800))
                    out.append(alu("r6", AluOp.AND, "r9", imm=1))
                    pte_branch_at = len(out)
                    out.append(br("r6", target=-1))
                    out.append(load("r9", "r5", imm=16))
                    out[pte_branch_at] = br("r6", target=len(out))
                    out.append(alu("r5", AluOp.ADD, "r5", imm=4096))
                    out.append(alu("r3", AluOp.SUB, "r3", imm=1))
                    out.append(br("r3", target=loop_start))
                else:
                    self._gen_segment(leaf_rng, out, leaf_rng.randint(18, 40))
                out.append(ret())
                self._add(leaf, "leaf", out, syscall=name)
                leaves.append(leaf)

            impl = f"{name}_impl{i}"
            impl_rng = self._rng(impl)
            out = []
            self._gen_segment(impl_rng, out, impl_rng.randint(14, 30))
            for helper in impl_rng.sample(_HELPER_NAMES[:self.config.n_helpers],
                                          impl_rng.randint(2, 4)):
                out.append(call(helper))
            for leaf in leaves:
                out.append(call(leaf))
            self._gen_segment(impl_rng, out, impl_rng.randint(8, 18))
            out.append(ret())
            self._add(impl, "impl", out, syscall=name)
            impl_names.append(impl)

        # Error path: statically visible, dynamically never executed.
        err = f"{name}_error_path"
        err_rng = self._rng(err)
        err_body: list[MicroOp] = []
        self._gen_segment(err_rng, err_body, err_rng.randint(12, 24))
        err_body.append(call("audit_log"))
        err_body.append(ret())
        self._add(err, "error", err_body, syscall=name)

        # Rare path: direct callee taken only when r1 == RARE_PATH_MAGIC.
        rare = f"{name}_rare_path"
        rare_rng = self._rng(rare)
        rare_body: list[MicroOp] = []
        self._gen_segment(rare_rng, rare_body, rare_rng.randint(14, 28))
        rare_body.append(ret())
        self._add(rare, "rare", rare_body, syscall=name)

        # Entry function.
        out = []
        # Argument validation: branch to the error path when arg0 has the
        # poison bit (never set by benign workloads; static analysis still
        # records the edge).
        out.append(alu("r6", AluOp.SHR, REG_ARG0, imm=62))
        out.append(alu("r6", AluOp.AND, "r6", imm=1))
        err_branch_at = len(out)
        out.append(br("r6", target=-1))
        out.append(jmp(-1))  # patched: skip over error call
        out[err_branch_at] = br("r6", target=len(out))
        out.append(call(err))
        err_join = len(out)
        out[err_branch_at + 1] = jmp(err_join)

        # Rare path trigger on r1.
        out.append(li("r7", RARE_PATH_MAGIC))
        out.append(alu("r6", AluOp.CMPEQ, REG_ARG1, "r7"))
        rare_branch_at = len(out)
        out.append(br("r6", target=-1))
        out.append(jmp(-1))
        out[rare_branch_at] = br("r6", target=len(out))
        out.append(call(rare))
        rare_join = len(out)
        out[rare_branch_at + 1] = jmp(rare_join)

        self._gen_segment(rng, out, rng.randint(10, 22))

        if uses_fops:
            # Indirect dispatch through the global fops pointer table.  The
            # slot offset arrives in r4 (the kernel computes it from the fd
            # when setting up the syscall), so the callee is invisible to
            # static analysis.
            out.append(alu("r5", AluOp.ADD, REG_GLOBAL, "r4"))
            out.append(load("r9", "r5", tag="fops-pointer"))
            out.append(icall("r9", tag="fops-dispatch"))

        for impl in impl_names:
            out.append(call(impl))
        self._gen_segment(rng, out, rng.randint(6, 14))
        out.append(kret())

        indirect = tuple(
            impl for impls in self.fops_impls.values() for impl in impls
        ) if uses_fops else ()
        self._add(entry, "entry", out, syscall=name,
                  indirect_callees=indirect)

    # -- proof-of-concept functions --------------------------------------

    def _build_poc_functions(self) -> None:
        """Hand-written functions the attack PoCs rely on."""
        # (1) Spectre v1 gadget on the sys_ioctl path (active attack).
        # Mirrors Listing 2.1: bounds check on the user-controlled r0,
        # then array1[idx] -> array2[value * 64].
        out: list[MicroOp] = [
            load("r5", REG_GLOBAL, imm=GLOBAL_ARRAY1_SIZE_OFF,
                 tag="gadget-bound"),
            # Unsigned bounds check, as in Listing 2.1: a negative or
            # huge index architecturally fails; only mistrained
            # speculation gets past it.
            alu("r6", AluOp.CMPLTU, REG_ARG0, "r5"),
        ]
        branch_at = len(out)
        out.append(br("r6", target=-1, tag="gadget-branch"))
        out.append(ret())  # out-of-bounds: bail (architecturally)
        out[branch_at] = br("r6", target=len(out), tag="gadget-branch")
        out.extend([
            alu("r7", AluOp.ADD, REG_HEAP, REG_ARG0, tag="gadget-index"),
            load("r8", "r7", tag="gadget-access"),
            alu("r9", AluOp.AND, "r8", imm=0xFF),
            alu("r9", AluOp.SHL, "r9", imm=6),
            alu("r9", AluOp.ADD, "r9", REG_HEAP),
            alu("r9", AluOp.ADD, "r9", imm=PROBE_ARRAY_OFF),
            load("r3", "r9", tag="gadget-transmit"),
            ret(),
        ])
        self._add("ioctl_v1_gadget", "leaf", out, syscall="ioctl")
        self.info["ioctl_v1_gadget"].gadgets = ("cache",)
        # Wire it into sys_ioctl's entry (append before KRET).
        entry = self.layout["sys_ioctl"]
        entry.body.insert(len(entry.body) - 1, call("ioctl_v1_gadget"))
        self._recompute_callees("sys_ioctl")

        # (2) A victim helper that leaves a pointer to the caller's secret
        # in r5 and then returns: "Function 1" of the passive attack in
        # Figure 4.2.  Inserted *before* the fops indirect call of
        # sys_recvfrom, so at the hijackable ICALL (and the deep-return
        # chain below) r5 still holds the secret reference.
        # r2 (the syscall's third argument, e.g. a buffer cursor) offsets
        # the reference -- benign per-call variation the victim makes and
        # the attacker merely observes.
        out = [
            alu("r5", AluOp.ADD, REG_HEAP, imm=SECRET_OFF),
            alu("r5", AluOp.ADD, "r5", REG_ARG2),
            alu("r6", AluOp.XOR, "r6", "r6"),
            ret(),
        ]
        self._add("recv_secret_ref_helper", "leaf", out, syscall="recvfrom")

        # Deep call chain (depth 18 > 16 RSB entries): the outermost
        # returns underflow the RSB, and on Retbleed-vulnerable cores the
        # predictor falls back to the (poisonable) BTB.
        depth = 18
        for i in reversed(range(depth)):
            body: list[MicroOp] = [alu("r6", AluOp.ADD, "r6", imm=1)]
            if i + 1 < depth:
                body.append(call(f"recv_deep{i + 1}"))
            body.append(ret())
            self._add(f"recv_deep{i}", "leaf", body, syscall="recvfrom")

        entry = self.layout["sys_recvfrom"]
        icall_at = next(i for i, op in enumerate(entry.body)
                        if op.op is Op.ICALL)
        entry.body.insert(icall_at, call("recv_deep0"))
        entry.body.insert(icall_at, call("recv_secret_ref_helper"))
        self._recompute_callees("sys_recvfrom")

        # (3) The hijack target ("Function 2" of Figure 4.2): a driver
        # function never reachable from syscalls, containing a universal
        # read gadget that dereferences r5 and transmits through the
        # current heap's probe array.  Outside every ISV.
        out = [
            load("r6", "r5", tag="gadget-access"),
            alu("r7", AluOp.AND, "r6", imm=0xFF),
            alu("r7", AluOp.SHL, "r7", imm=6),
            alu("r7", AluOp.ADD, "r7", REG_HEAP),
            alu("r7", AluOp.ADD, "r7", imm=PROBE_ARRAY_OFF),
            load("r8", "r7", tag="gadget-transmit"),
            ret(),
        ]
        self._add("xilinx_usb_poc_gadget", "driver", out)
        self.info["xilinx_usb_poc_gadget"].gadgets = ("cache",)

        # (3b) A second hijack target that dereferences the *first syscall
        # argument* -- the active-v2 gadget: the attacker's own kernel
        # thread is hijacked into it with r0 = any kernel VA.
        out = [
            load("r6", REG_ARG0, tag="gadget-access"),
            alu("r7", AluOp.AND, "r6", imm=0xFF),
            alu("r7", AluOp.SHL, "r7", imm=6),
            alu("r7", AluOp.ADD, "r7", REG_HEAP),
            alu("r7", AluOp.ADD, "r7", imm=PROBE_ARRAY_OFF),
            load("r8", "r7", tag="gadget-transmit"),
            ret(),
        ]
        self._add("active_v2_deref_gadget", "driver", out)
        self.info["active_v2_deref_gadget"].gadgets = ("cache",)

        # (4) The scheduler's resume path: the first op a thread executes
        # when switched back in is the RET out of finish_task_switch, which
        # consumes whatever the RSB holds -- the Spectre-RSB consumption
        # point (the attacker ran on this core in the meantime).
        out = [
            alu("r6", AluOp.ADD, "r6", imm=1),
            ret(),
        ]
        self._add("finish_task_switch", "helper", out)

    # -- driver tail ------------------------------------------------------

    def _build_drivers(self) -> None:
        remaining = self.config.total_functions - len(self.info)
        if remaining < 0:
            raise ValueError(
                f"total_functions={self.config.total_functions} is smaller "
                f"than the fixed sections ({len(self.info)} functions: "
                "helpers + fops + syscalls + PoCs); use at least "
                f"{len(self.info)}")
        module = 0
        while remaining > 0:
            module += 1
            group = min(remaining, 8)
            names = [f"drv{module}_fn{i}" for i in range(group)]
            for i, name in enumerate(names):
                rng = self._rng(name)
                out: list[MicroOp] = []
                self._gen_segment(rng, out, self.config.driver_body_ops)
                # Intra-module call edges form small trees.
                if i + 1 < group and rng.random() < 0.5:
                    out.append(call(names[i + 1]))
                out.append(ret())
                self._add(name, "driver", out)
            remaining -= group

    # -- gadget population --------------------------------------------------

    def _place_gadgets(self) -> None:
        """Mark ``gadget_total`` functions as containing a potential
        transient-execution gadget, class-partitioned per Kasper's counts.

        Reachable (non-driver) functions get ``reachable_gadget_weight``;
        this reproduces the paper's finding that ISVs containing ~5-9% of
        functions still contain 7-22% of the gadgets (Table 8.2).
        """
        rng = self._rng("gadgets")
        candidates = []
        weights = []
        for name, info in self.info.items():
            if info.gadget_class is not None:
                continue  # PoC gadgets already placed
            if info.role == "entry":
                continue  # entries stay clean; gadgets live in callees
            if name.startswith("recv_deep") or name in (
                    "recv_secret_ref_helper", "finish_task_switch"):
                continue  # hand-written PoC scaffolding stays byte-exact
            if name in self._gadget_excluded:
                continue  # tight copy/scan loops hold no Kasper findings
            candidates.append(name)
            weights.append(1.0 if info.role == "driver"
                           else self.config.reachable_gadget_weight)

        # Three hand-written PoC gadgets are already placed (all "cache").
        classes = (["mds"] * self.config.gadget_mds
                   + ["port"] * self.config.gadget_port
                   + ["cache"] * (self.config.gadget_cache - 3))
        rng.shuffle(classes)

        # Weighted sample WITH replacement: hot functions accumulate
        # several distinct gadgets, matching Kasper's concentration.
        np_rng = np.random.default_rng(self.config.seed ^ 0x9E3779B9)
        probs = np.asarray(weights, dtype=float)
        probs /= probs.sum()
        picked = np_rng.choice(len(candidates), size=len(classes),
                               replace=True, p=probs)
        per_function: dict[str, list[str]] = {}
        for i, gadget_class in zip(picked, classes):
            per_function.setdefault(candidates[i], []).append(gadget_class)
        for name, gadget_classes in per_function.items():
            self.info[name].gadgets = tuple(gadget_classes)
            self._embed_gadget_pattern(name, count=len(gadget_classes))

    def _embed_gadget_pattern(self, name: str, count: int = 1) -> None:
        """Insert ``count`` recognizable (to the taint scanner) gadget
        sequences into the function body: each is a user-influenced access
        feeding a dependent transmitter."""
        func = self.layout[name]
        pattern = [
            alu("r7", AluOp.ADD, REG_HEAP, REG_ARG0, tag="gadget-index"),
            load("r8", "r7", tag="gadget-access"),
            alu("r9", AluOp.AND, "r8", imm=0x3F),
            alu("r9", AluOp.SHL, "r9", imm=6),
            alu("r9", AluOp.ADD, "r9", REG_HEAP),
            alu("r9", AluOp.ADD, "r9", imm=GADGET_SCRATCH_OFF),
            load("r8", "r9", tag="gadget-transmit"),
        ] * count
        insert_at = max(0, len(func.body) - 1)  # before the final ret
        # Splice in, fixing any branch targets that pointed past the
        # insertion point.
        fixed = []
        for op in func.body:
            if op.target >= insert_at and op.op.name in ("BR", "JMP"):
                fixed.append(MicroOp(op.op, dst=op.dst, src1=op.src1,
                                     src2=op.src2, imm=op.imm,
                                     target=op.target + len(pattern),
                                     callee=op.callee, alu_op=op.alu_op,
                                     tag=op.tag))
            else:
                fixed.append(op)
        func.body[:] = fixed[:insert_at] + pattern + fixed[insert_at:]

    def _finalize_layout(self) -> None:
        if len(self.info) != self.config.total_functions:
            raise AssertionError(
                f"built {len(self.info)} functions, expected "
                f"{self.config.total_functions}")


#: Process-wide image cache, explicitly keyed by generation seed.  An
#: ``lru_cache(maxsize=2)`` sat here before: interleaving three or more
#: seeds in one process (a sweep, or a `repro.exec` worker that services
#: shards of different configs) silently evicted and *regenerated*
#: images mid-run, so the "shared" instance an experiment held was not
#: the one later kernels got -- and worker processes could disagree with
#: a serial run about which instances were live.  An explicit dict has
#: no eviction: one instance per seed for the life of the process, and
#: test/experiment setup can reset it deterministically.
_SHARED_IMAGES: dict[int, KernelImage] = {}


def shared_image(seed: int = ImageConfig.seed) -> KernelImage:
    """A process-wide cached default image, one instance per seed.

    The image is immutable after construction and contains no runtime
    state, so experiments, attacks and tests can share one instance across
    many kernel instances instead of paying generation time repeatedly.
    Repeated calls with the same seed return the *same* object no matter
    how many other seeds were requested in between.
    """
    image = _SHARED_IMAGES.get(seed)
    if image is None:
        image = _SHARED_IMAGES[seed] = KernelImage(ImageConfig(seed=seed))
    return image


def clear_shared_images() -> None:
    """Drop every cached image (deterministic experiment/test setup)."""
    _SHARED_IMAGES.clear()
