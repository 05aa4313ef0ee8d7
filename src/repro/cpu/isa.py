"""Micro-op instruction set for the out-of-order core model.

The simulator executes *micro-op programs*: each kernel function in the
synthetic kernel image (see :mod:`repro.kernel.image`) is compiled to a
sequence of micro-ops.  The ISA is deliberately small -- just enough to
express the code patterns that matter for transient-execution attacks and
their defenses:

* ``LOAD`` is the *transmitter* class of instruction the paper protects
  (Chapter 5): its execution leaves a microarchitectural trace in the cache.
* ``BR`` (conditional branch) is the Spectre v1 entry point.
* ``ICALL``/``IJMP``/``RET`` are the speculative control-flow hijacking
  entry points (Spectre v2 / Spectre RSB / BHI / Retbleed).
* ``FENCE`` models ``lfence``-style serialization used by spot mitigations.

Micro-ops operate over a small named register file.  Addresses are virtual;
the pipeline translates them through the executing context's address space.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field


class Op(enum.Enum):
    """Micro-op kinds understood by the pipeline."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BR = "br"
    JMP = "jmp"
    IJMP = "ijmp"
    CALL = "call"
    ICALL = "icall"
    RET = "ret"
    FENCE = "fence"
    FLUSH = "flush"  # clflush-style: evict a line (used by covert channels)
    NOP = "nop"
    KRET = "kret"  # return from kernel to userspace (end of program)


class AluOp(enum.Enum):
    """Operations supported by the ``ALU`` micro-op."""

    MOV = "mov"
    LI = "li"
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MUL = "mul"
    CMPLT = "cmplt"  # dst = 1 if src1 < src2 else 0 (signed)
    CMPLTU = "cmpltu"  # unsigned compare: negatives wrap to huge values
    CMPEQ = "cmpeq"  # dst = 1 if src1 == src2 else 0


@dataclass(frozen=True, slots=True)
class MicroOp:
    """A single micro-op.

    Fields are interpreted per :class:`Op`:

    * ``ALU``: ``dst = alu_op(src1, src2 or imm)``
    * ``LOAD``: ``dst = MEM[reg(src1) + imm]``
    * ``STORE``: ``MEM[reg(src1) + imm] = reg(src2)``
    * ``BR``: branch to op index ``target`` within the current function when
      ``reg(src1) != 0``
    * ``JMP``: unconditional branch to op index ``target``
    * ``CALL``: call function named ``callee``
    * ``ICALL``/``IJMP``: indirect call/jump to the function whose *code
      address* is in ``reg(src1)``
    * ``FLUSH``: evict the line containing ``reg(src1) + imm``
    """

    op: Op
    dst: str | None = None
    src1: str | None = None
    src2: str | None = None
    imm: int = 0
    target: int = -1
    callee: str | None = None
    alu_op: AluOp | None = None
    #: Free-form tag used by the kernel image generator and the gadget
    #: scanner, e.g. ``"gadget-access"`` or ``"gadget-transmit"``.
    tag: str | None = None

    def reads(self) -> tuple[str, ...]:
        """Registers this op reads (used for dependency tracking)."""
        regs = []
        if self.src1 is not None:
            regs.append(self.src1)
        if self.src2 is not None:
            regs.append(self.src2)
        return tuple(regs)

    def is_transmitter(self) -> bool:
        """Whether the op can leak data through a covert channel.

        Following the paper (Section 5.1) we treat loads as the transmitter
        class: their execution changes cache state observably.
        """
        return self.op is Op.LOAD


def alu(dst: str, alu_op: AluOp, src1: str | None = None,
        src2: str | None = None, imm: int = 0, tag: str | None = None) -> MicroOp:
    """Convenience constructor for ALU micro-ops."""
    return MicroOp(Op.ALU, dst=dst, src1=src1, src2=src2, imm=imm,
                   alu_op=alu_op, tag=tag)


def li(dst: str, value: int) -> MicroOp:
    """Load-immediate: ``dst = value``."""
    return MicroOp(Op.ALU, dst=dst, imm=value, alu_op=AluOp.LI)


def load(dst: str, base: str, imm: int = 0, tag: str | None = None) -> MicroOp:
    """Memory load: ``dst = MEM[reg(base) + imm]``."""
    return MicroOp(Op.LOAD, dst=dst, src1=base, imm=imm, tag=tag)


def store(base: str, src: str, imm: int = 0, tag: str | None = None) -> MicroOp:
    """Memory store: ``MEM[reg(base) + imm] = reg(src)``."""
    return MicroOp(Op.STORE, src1=base, src2=src, imm=imm, tag=tag)


def br(cond: str, target: int, tag: str | None = None) -> MicroOp:
    """Conditional branch taken when ``reg(cond) != 0``."""
    return MicroOp(Op.BR, src1=cond, target=target, tag=tag)


def jmp(target: int) -> MicroOp:
    """Unconditional intra-function jump."""
    return MicroOp(Op.JMP, target=target)


def call(callee: str, tag: str | None = None) -> MicroOp:
    """Direct call to a named function."""
    return MicroOp(Op.CALL, callee=callee, tag=tag)


def icall(base: str, tag: str | None = None) -> MicroOp:
    """Indirect call through a register holding a function code address."""
    return MicroOp(Op.ICALL, src1=base, tag=tag)


def ijmp(base: str, tag: str | None = None) -> MicroOp:
    """Indirect jump through a register holding a function code address."""
    return MicroOp(Op.IJMP, src1=base, tag=tag)


def ret() -> MicroOp:
    """Return from the current function."""
    return MicroOp(Op.RET)


def fence() -> MicroOp:
    """Serializing fence (lfence)."""
    return MicroOp(Op.FENCE)


def flush(base: str, imm: int = 0) -> MicroOp:
    """Flush the cache line containing ``reg(base) + imm``."""
    return MicroOp(Op.FLUSH, src1=base, imm=imm)


def nop() -> MicroOp:
    return MicroOp(Op.NOP)


def kret() -> MicroOp:
    """Terminate kernel execution and return to userspace."""
    return MicroOp(Op.KRET)


#: Size in bytes of one encoded micro-op.  Instruction virtual addresses are
#: ``function.base_va + index * OP_SIZE``; the ISV bitmap has one bit per
#: micro-op slot (Section 6.2).
OP_SIZE = 4


def _rebuild_body(ops: list, version: int) -> "BodyList":
    body = BodyList(ops)
    body.version = version
    return body


class BodyList(list):
    """A function body that counts its own mutations.

    Every mutating list operation bumps ``version``, which the decode
    tables (:meth:`Function.decoded`) and the block JIT
    (:mod:`repro.cpu.blockcache`) use as their staleness key.  This closes
    the hole where an *in-place, same-length* op replacement (e.g. the
    image generator's gadget splicing) left a stale decode live unless the
    caller remembered to call :meth:`Function.invalidate_decode` -- the
    stale state is now unrepresentable rather than merely detectable.
    """

    __slots__ = ("version",)

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.version = 0

    def bump(self) -> None:
        """Force-invalidate derived state (decode tables, compiled blocks)."""
        self.version += 1

    def __reduce__(self):
        return (_rebuild_body, (list(self), self.version))

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self.version += 1

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self.version += 1

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self.version += 1
        return result

    def __imul__(self, factor):
        result = super().__imul__(factor)
        self.version += 1
        return result

    def append(self, value) -> None:
        super().append(value)
        self.version += 1

    def extend(self, iterable) -> None:
        super().extend(iterable)
        self.version += 1

    def insert(self, index, value) -> None:
        super().insert(index, value)
        self.version += 1

    def pop(self, index=-1):
        value = super().pop(index)
        self.version += 1
        return value

    def remove(self, value) -> None:
        super().remove(value)
        self.version += 1

    def clear(self) -> None:
        super().clear()
        self.version += 1

    def sort(self, **kwargs) -> None:
        super().sort(**kwargs)
        self.version += 1

    def reverse(self) -> None:
        super().reverse()
        self.version += 1


@dataclass(frozen=True, slots=True)
class DecodedBody:
    """Precomputed per-op tables the pipeline's fetch/issue loop consults.

    One entry per op *plus one* for the implicit-RET slot at
    ``index == len(body)``, so the hot loop never branches on the
    end-of-function case.  ``length``/``base_va``/``version`` are the
    validity key: a decode is stale once the body grows/shrinks, the
    function is (re)placed in a layout, or any in-place op replacement
    bumps the :class:`BodyList` mutation counter.
    """

    vas: tuple[int, ...]
    lines: tuple[int, ...]  # instruction cache lines (va // 64)
    reads: tuple[tuple[str, ...], ...]
    length: int
    base_va: int
    version: int = 0


@dataclass
class Function:
    """A unit of kernel (or userspace) code: a named micro-op sequence.

    ``base_va`` is assigned when the function is placed into a
    :class:`CodeLayout`.  Metadata fields carry ground truth used by the
    analyses (they are *not* consulted by the pipeline).
    """

    name: str
    body: list[MicroOp] = field(default_factory=BodyList)
    base_va: int = 0
    #: Direct callees (function names), derivable from the body; cached here.
    callees: tuple[str, ...] = ()
    #: Functions only reachable from here through indirect calls.  Static
    #: analysis cannot see these edges (Section 5.3, Figure 5.3a).
    indirect_callees: tuple[str, ...] = ()
    #: Whether the function contains a transient-execution gadget and of
    #: which covert-channel class ("mds", "port", "cache") -- ground truth
    #: for the scanner evaluation.
    gadget_class: str | None = None
    #: Lazily-built decode tables (see :meth:`decoded`); never compared or
    #: shown -- it is a pure cache over ``body``/``base_va``.
    _decoded: DecodedBody | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.body, BodyList):
            self.body = BodyList(self.body)

    def __len__(self) -> int:
        return len(self.body)

    @property
    def end_va(self) -> int:
        return self.base_va + len(self.body) * OP_SIZE

    def va_of(self, index: int) -> int:
        """Virtual address of the op at ``index``."""
        return self.base_va + index * OP_SIZE

    def contains_va(self, va: int) -> bool:
        return self.base_va <= va < self.end_va

    def decoded(self) -> DecodedBody:
        """The cached decode of this body (recomputed when stale).

        Staleness is keyed on ``(len(body), base_va, body.version)``:
        growth/shrink, layout (re)placement, *and* in-place op replacement
        (every :class:`BodyList` mutator bumps the version) all force a
        re-decode, so a stale decode can never be replayed silently --
        callers no longer need to remember :meth:`invalidate_decode`.
        """
        body = self.body
        if not isinstance(body, BodyList):
            # A caller assigned a plain list; adopt it so mutation
            # tracking resumes (the decode below is freshly computed).
            body = self.body = BodyList(body)
        dec = self._decoded
        if dec is not None and dec.length == len(body) \
                and dec.base_va == self.base_va \
                and dec.version == body.version:
            return dec
        base = self.base_va
        vas = tuple(base + i * OP_SIZE for i in range(len(body) + 1))
        dec = DecodedBody(
            vas=vas,
            lines=tuple(va // 64 for va in vas),
            reads=tuple(op.reads() for op in body) + ((),),
            length=len(body),
            base_va=base,
            version=body.version)
        self._decoded = dec
        return dec

    def invalidate_decode(self) -> None:
        """Force-drop derived state (decode tables, compiled blocks).

        Mutations through :class:`BodyList` are tracked automatically;
        this remains for callers that mutated the body through an alias
        that bypassed the tracked methods.
        """
        self._decoded = None
        body = self.body
        if isinstance(body, BodyList):
            body.bump()
        else:
            self.body = BodyList(body)


class CodeLayout:
    """Assigns virtual addresses to functions and maps addresses back.

    Models the kernel text segment: each function occupies a fixed-size
    slot of ``stride_ops`` micro-op slots starting at ``text_base``, so
    bodies may grow (e.g. when the image generator splices in a gadget
    pattern) without disturbing neighbouring addresses.  Indirect branches
    carry raw code addresses in registers, which the layout resolves back
    to ``(function, op index)`` targets.
    """

    def __init__(self, text_base: int, stride_ops: int = 512) -> None:
        self.text_base = text_base
        self.stride_ops = stride_ops
        self._functions: dict[str, Function] = {}
        self._next_va = text_base
        # Slot base VAs and the function placed at each, in address order
        # (VAs only grow, so ``_bases`` stays sorted for bisection).
        self._bases: list[int] = []
        self._placed: list[Function] = []

    def add(self, func: Function) -> Function:
        """Place ``func`` in the layout, assigning its base address."""
        if func.name in self._functions:
            raise ValueError(f"duplicate function name: {func.name}")
        if len(func.body) >= self.stride_ops:
            raise ValueError(
                f"{func.name}: body of {len(func.body)} ops exceeds the "
                f"layout stride of {self.stride_ops}")
        func.base_va = self._next_va
        self._next_va += self.stride_ops * OP_SIZE
        self._functions[func.name] = func
        self._bases.append(func.base_va)
        self._placed.append(func)
        return func

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __getitem__(self, name: str) -> Function:
        return self._functions[name]

    def get(self, name: str) -> Function | None:
        return self._functions.get(name)

    def functions(self) -> list[Function]:
        return list(self._functions.values())

    def names(self) -> list[str]:
        return list(self._functions)

    def resolve_va(self, va: int) -> tuple[Function, int] | None:
        """Map a code address to ``(function, op index)``, or ``None``."""
        slot = bisect_right(self._bases, va) - 1
        if slot < 0:
            return None
        func = self._placed[slot]
        if not func.contains_va(va):
            return None
        return func, (va - self._bases[slot]) // OP_SIZE

    def functions_overlapping(self, lo: int, hi: int) -> list[Function]:
        """The functions whose body ``[base_va, end_va)`` meets ``[lo, hi)``.

        In address order.  Bodies stay inside their slots, so the scan
        starts at the slot holding ``lo`` (the search of
        :meth:`resolve_va`) and stops at the first slot at or past ``hi``.
        """
        start = max(bisect_right(self._bases, lo) - 1, 0)
        stop = bisect_left(self._bases, hi)
        return [func for func in self._placed[start:stop]
                if max(func.base_va, lo) < min(func.end_va, hi)]

    @property
    def text_end(self) -> int:
        return self._next_va

    def overlay(self) -> "OverlayCodeLayout":
        """A per-instance view that can grow without mutating this layout.

        Runtime code loading (eBPF programs) adds functions to a kernel
        instance, but the base image is shared across many kernels; the
        overlay keeps additions local.
        """
        return OverlayCodeLayout(self)


class OverlayCodeLayout:
    """A :class:`CodeLayout` plus instance-local additions.

    Local functions are placed in a dedicated region far above the base
    text segment (the BPF/JIT area), so base and overlay address ranges
    never collide and ``resolve_va`` can dispatch by range.
    """

    #: VA distance from the base text start to the overlay (JIT) region.
    OVERLAY_REGION_OFFSET = 0x0000_0010_0000_0000

    def __init__(self, base: CodeLayout) -> None:
        self.base = base
        self.stride_ops = base.stride_ops
        self._local = CodeLayout(
            base.text_base + self.OVERLAY_REGION_OFFSET,
            stride_ops=base.stride_ops)

    @property
    def text_base(self) -> int:
        return self.base.text_base

    @property
    def overlay_base(self) -> int:
        return self._local.text_base

    def add(self, func: Function) -> Function:
        """Place a function in the overlay (JIT) region."""
        if func.name in self.base:
            raise ValueError(
                f"{func.name} already exists in the base image")
        return self._local.add(func)

    def __contains__(self, name: str) -> bool:
        return name in self._local or name in self.base

    def __getitem__(self, name: str) -> Function:
        found = self._local.get(name)
        if found is not None:
            return found
        return self.base[name]

    def get(self, name: str) -> Function | None:
        found = self._local.get(name)
        if found is not None:
            return found
        return self.base.get(name)

    def functions(self) -> list[Function]:
        return self.base.functions() + self._local.functions()

    def names(self) -> list[str]:
        return self.base.names() + self._local.names()

    def local_names(self) -> list[str]:
        return self._local.names()

    def resolve_va(self, va: int) -> tuple[Function, int] | None:
        if va >= self._local.text_base:
            return self._local.resolve_va(va)
        return self.base.resolve_va(va)

    def functions_overlapping(self, lo: int, hi: int) -> list[Function]:
        """Base functions, then local ones (the region above), in ``[lo, hi)``."""
        return (self.base.functions_overlapping(lo, hi)
                + self._local.functions_overlapping(lo, hi))
