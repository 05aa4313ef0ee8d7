"""eBPF-style program loading with a speculation-aware verifier.

Rows 3-4 of Table 4.1 are verifier bugs: programs that are architecturally
safe (every out-of-bounds access is guarded by a branch) but *speculatively*
unsafe -- the guard branch can be mistrained, turning the loaded program
into an attacker-injected transient-execution gadget inside the kernel.
Section 4.2 notes the two deployed mitigations: fixing the verification
logic (require index *masking*, which bounds the address on every path the
hardware can take) and disallowing unprivileged loads.

This module reproduces that whole story:

* :class:`BPFVerifier` statically checks submitted micro-op programs.  In
  ``speculation_safe=False`` mode (the historical verifier) a
  branch-guarded access passes; in the fixed mode only masked indexing
  does.
* :class:`BPFManager` verifies, loads (into the kernel's per-instance
  overlay code region -- the JIT area), and runs programs on behalf of a
  process, enforcing the unprivileged-load policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.isa import AluOp, Function, MicroOp, Op
from repro.cpu.pipeline import ExecutionContext
from repro.kernel.process import Process

#: Registers a BPF program may write.
BPF_WRITABLE = frozenset({"r5", "r6", "r7", "r8", "r9"})
#: Registers a BPF program may read (arguments + map base + scratch).
BPF_READABLE = BPF_WRITABLE | {"r0", "r15"}
#: Bytes of the per-context map area the program may address (from r15).
MAP_SIZE = 4096
MAP_MASK = MAP_SIZE - 1
MAX_PROGRAM_OPS = 256


class VerifierError(Exception):
    """The submitted program failed verification."""


@dataclass
class BPFProgram:
    """A program as submitted by userspace."""

    name: str
    body: list[MicroOp]


@dataclass
class LoadedProgram:
    """A verified program installed in the kernel's JIT area."""

    handle: int
    owner_pid: int
    function: Function
    speculation_safe: bool


class BPFVerifier:
    """Static safety checker for submitted programs.

    Architectural rules (always enforced):

    * only ``BPF_WRITABLE`` registers are written, only ``BPF_READABLE``
      read; no calls, indirect branches, or kernel-exit ops;
    * branch targets stay inside the program; the program ends with RET;
    * every memory access is based on ``r15`` (the map area) and provably
      within ``MAP_SIZE``: either a constant offset, or a register offset
      that is *bounded* on the access path.

    Boundedness is where the speculation bug lives: the historical
    verifier (``speculation_safe=False``) accepts a **branch guard**
    (``if (idx < bound) use(idx)``) as proof -- true architecturally,
    false transiently.  The fixed verifier accepts only **masking**
    (``idx &= MAP_MASK``), which bounds the value on every path the
    hardware can take.
    """

    def __init__(self, speculation_safe: bool = True) -> None:
        self.speculation_safe = speculation_safe

    def verify(self, program: BPFProgram) -> None:
        body = program.body
        if not body or len(body) > MAX_PROGRAM_OPS:
            raise VerifierError("empty or oversized program")
        if body[-1].op is not Op.RET:
            raise VerifierError("program must end with RET")
        # Abstract value tracking (flow-insensitive, like the sloppy
        # original): which registers are provably bounded below MAP_SIZE,
        # and how; which hold a map-area pointer derived from a bounded
        # index.
        masked: set[str] = set()
        guarded: set[str] = set()
        ptr_masked: set[str] = set()
        ptr_guarded: set[str] = set()

        def invalidate(reg: str) -> None:
            masked.discard(reg)
            guarded.discard(reg)
            ptr_masked.discard(reg)
            ptr_guarded.discard(reg)

        for idx, op in enumerate(body):
            kind = op.op
            if kind in (Op.CALL, Op.ICALL, Op.IJMP, Op.KRET, Op.FLUSH):
                raise VerifierError(f"op {idx}: {kind.value} is forbidden")
            for src in op.reads():
                if src not in BPF_READABLE:
                    raise VerifierError(f"op {idx}: reads {src}")
            if op.dst is not None and op.dst not in BPF_WRITABLE:
                raise VerifierError(f"op {idx}: writes {op.dst}")
            if kind in (Op.BR, Op.JMP):
                if not 0 <= op.target <= len(body):
                    raise VerifierError(f"op {idx}: branch out of range")
            if kind in (Op.LOAD, Op.STORE):
                self._check_access(idx, op, ptr_masked, ptr_guarded)
            if kind is Op.LOAD:
                invalidate(op.dst)
                continue
            if kind is not Op.ALU:
                continue
            # ALU transfer function.
            if op.alu_op is AluOp.AND and op.src2 is None \
                    and 0 <= op.imm <= MAP_MASK:
                invalidate(op.dst)
                masked.add(op.dst)
            elif op.alu_op in (AluOp.CMPLT, AluOp.CMPLTU) \
                    and op.src2 is None and 0 < op.imm <= MAP_SIZE:
                # The flag's source is architecturally bounded on the
                # branch-taken path (a later BR consumes the flag).
                guarded.add(op.src1)
                invalidate(op.dst)
            elif op.alu_op is AluOp.ADD and op.src2 is not None \
                    and "r15" in (op.src1, op.src2):
                index = op.src2 if op.src1 == "r15" else op.src1
                invalidate(op.dst)
                if index in masked:
                    ptr_masked.add(op.dst)
                elif index in guarded:
                    ptr_guarded.add(op.dst)
            elif op.dst is not None:
                invalidate(op.dst)

    def _check_access(self, idx: int, op: MicroOp, ptr_masked: set[str],
                      ptr_guarded: set[str]) -> None:
        base = op.src1
        if base == "r15":
            if not 0 <= op.imm < MAP_SIZE:
                raise VerifierError(f"op {idx}: constant offset {op.imm} "
                                    "outside the map area")
            return
        if base in ptr_masked:
            return
        if base in ptr_guarded and not self.speculation_safe:
            # The historical verifier's hole: a branch guard bounds the
            # index architecturally but NOT transiently (rows 3-4 of
            # Table 4.1).
            return
        raise VerifierError(
            f"op {idx}: address register {base} is not provably bounded"
            + ("" if not self.speculation_safe
               else " (branch guards do not bound transient execution; "
                    "mask the index with AND instead)"))


class BPFManager:
    """Loads and runs verified programs for a kernel instance."""

    def __init__(self, kernel, verifier: BPFVerifier | None = None,
                 allow_unprivileged: bool = False) -> None:
        self.kernel = kernel
        self.verifier = verifier or BPFVerifier(speculation_safe=True)
        #: SUSE/upstream hardening: unprivileged users may not load
        #: programs at all (Section 4.2's second mitigation).
        self.allow_unprivileged = allow_unprivileged
        self._handles = kernel.bpf_handles
        self.loaded: dict[int, LoadedProgram] = {}

    def load(self, proc: Process, program: BPFProgram,
             privileged: bool = False) -> int:
        """Verify and install a program; returns its handle."""
        if not privileged and not self.allow_unprivileged:
            raise PermissionError(
                "unprivileged BPF program loading is disabled")
        self.verifier.verify(program)
        handle = next(self._handles)
        function = Function(name=f"bpf_prog_{handle}_{program.name}",
                            body=list(program.body) )
        self.kernel.layout.add(function)
        loaded = LoadedProgram(handle=handle, owner_pid=proc.pid,
                               function=function,
                               speculation_safe=self.verifier.speculation_safe)
        self.loaded[handle] = loaded
        return handle

    def run(self, proc: Process, handle: int,
            arg: int = 0):
        """Execute a loaded program on behalf of ``proc``.

        The program runs as kernel code with r0 = the user-supplied
        argument and r15 = the direct-map address of the context's map
        area (its heap block), exactly like an attached BPF hook firing.
        """
        loaded = self.loaded[handle]
        if loaded.owner_pid != proc.pid:
            raise PermissionError("program belongs to another process")
        regs = {"r0": arg, "r15": proc.heap_va, "r5": 0, "r6": 0,
                "r7": 0, "r8": 0, "r9": 0}
        context = ExecutionContext(
            context_id=proc.cgroup.cg_id, domain="kernel",
            address_space=proc.aspace, initial_regs=regs)
        return self.kernel.pipeline.run(loaded.function, context,
                                        charge_kernel_entry=True)

    def unload(self, handle: int) -> None:
        del self.loaded[handle]
