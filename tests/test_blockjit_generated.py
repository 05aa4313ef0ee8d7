"""Generated micro-op differential corpus for the block JIT.

Hypothesis draws small programs over :mod:`repro.cpu.isa` -- ALU ops,
loads (some of them faulting, some through a data-dependent index),
stores, flushes and fences, conditional branches that one input trains
and another flips, counted loops, if/else diamonds closed by a JMP, and
direct and indirect calls across one to three functions -- and runs each
program under every registered scheme, once interpreted and once with
the block JIT on.

* **Check 1, JIT off == on (every scheme):** registers, the memory
  digest, cycles, fence counts and stall cycles, load, speculative-load
  and transient-load counts, TLB/L1I/L1D/L2 statistics and LRU contents,
  the conditional predictor, BTB and RSB, and the policy's own fence
  counters are equal.  Drawn variants run with an event journal active,
  whose JSONL must be equal too.
* **Check 2, scheme against scheme:** registers and memory are equal;
  cycles are exempt.  This is the "architecturally transparent" claim
  of every defense, SafeSpec and ConTExT included.

Framework-free schemes run on a private ``CodeLayout``/``MainMemory``
pipeline.  Schemes that need the Perspective framework or the kernel
(ConTExT) are armed with :func:`repro.defenses.registry.arm` on a
kernel, with the generated functions placed in its overlay layout the
way ``BPFManager.load`` places a program.  There, Perspective's ISV
trusts a drawn subset of the generated functions, loads reach pages the
running context owns (inside its DSV) and pages another process owns
(outside it, the first of them tagged non-transient for ConTExT), and
the faulting region is an unmapped user address.

Every program runs four times on one core: twice with the training
input, once with the flipping input (so the trained predictors
mispredict), and once more trained.  Tier-1 runs a bounded, derandomized
example budget; ``pytest -m slow`` runs a larger random one.  Shrunk
divergences are pinned in :data:`PINNED`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import (
    AluOp, CodeLayout, Function, alu, br, call, fence, flush, icall, jmp,
    li, load, ret, store,
)
from repro.cpu.memsys import AddressSpace, MainMemory, PageFault
from repro.cpu.pipeline import ExecutionContext, Pipeline
from repro.defenses.registry import (
    arm, build_policy, registered_schemes, scheme_capabilities,
)
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.obs import instrumented
from repro.obs.events import EventJournal

SCHEMES = registered_schemes()

#: Registers a generated op may write or read as data.  ``r0`` is the
#: input; ``r7`` counts loops, ``r8`` holds branch conditions, ``r9``
#: indexed addresses and ``r13`` indirect-call targets; ``r10``-``r12``
#: hold the region bases and are never written.
_DATA = ("r1", "r2", "r3", "r4", "r5", "r6")
_BASE = {"in": "r10", "out": "r11", "bad": "r12"}
_OFFSETS = (0, 8, 64, 200, 0x240, 0xFC0, 0x1000, 0x1240)
_ALU_OPS = (AluOp.ADD, AluOp.SUB, AluOp.XOR, AluOp.AND, AluOp.OR,
            AluOp.SHL, AluOp.SHR, AluOp.MUL, AluOp.CMPLT, AluOp.CMPLTU,
            AluOp.CMPEQ, AluOp.MOV)
_INDEX_MASK = 0x3C0
_TRAIN, _FLIP = 0, 1000
_INPUTS = (_TRAIN, _TRAIN, _FLIP, _TRAIN)


class Program(NamedTuple):
    """One generated program: per-function item lists (function 0 is the
    entry; function ``i`` calls only functions above ``i``) and the
    indices of the functions Perspective's ISV trusts."""

    funcs: tuple[tuple, ...]
    trusted: frozenset[int] = frozenset()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_reg = st.sampled_from(_DATA)
_offset = st.sampled_from(_OFFSETS)

#: Straight-line items: one op each, except ``iload`` (mask, add, load).
_flat = st.one_of(
    st.tuples(st.just("li"), _reg, st.integers(0, 300)),
    st.tuples(st.just("alu"), _reg, st.sampled_from(_ALU_OPS), _reg,
              st.none() | _reg, st.integers(0, 70)),
    st.tuples(st.just("load"), _reg, st.sampled_from(tuple(_BASE)),
              _offset),
    st.tuples(st.just("iload"), _reg, _reg, st.sampled_from(("in", "out")),
              _offset),
    st.tuples(st.just("store"), st.sampled_from(tuple(_BASE)), _reg,
              _offset),
    st.tuples(st.just("flush"), st.sampled_from(("in", "out")), _offset),
    st.tuples(st.just("fence")),
)

_body = st.lists(_flat, min_size=1, max_size=4).map(tuple)

#: ``(register, threshold, invert)``: the branch condition is
#: ``register < threshold``, inverted when ``invert``.  On ``r0`` every
#: threshold separates the training input from the flipping one.
_cond = st.tuples(st.sampled_from(("r0",) + _DATA),
                  st.sampled_from((1, 4, 64, 512)), st.booleans())


def _item(index: int, n_funcs: int):
    options = [
        _flat,
        st.tuples(st.just("if"), _cond, _body),
        st.tuples(st.just("ifelse"), _cond, _body, _body),
        st.tuples(st.just("loop"), st.integers(2, 5), _body),
    ]
    callees = tuple(range(index + 1, n_funcs))
    if callees:
        options.append(st.tuples(st.just("call"), st.sampled_from(callees)))
        options.append(st.tuples(
            st.just("icall"), st.sampled_from(callees),
            st.sampled_from(callees), st.sampled_from((1, 4, 64))))
    return st.one_of(*options)


@st.composite
def programs(draw) -> Program:
    n_funcs = draw(st.integers(1, 3))
    funcs = tuple(
        tuple(draw(st.lists(_item(i, n_funcs), min_size=1, max_size=8)))
        for i in range(n_funcs))
    trusted = draw(st.frozensets(st.integers(0, n_funcs - 1)))
    return Program(funcs, trusted)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def _assemble(items: tuple, entry_va: dict[int, int]) -> list:
    """Micro-ops for one function's items (``entry_va``: function index
    -> base VA, for indirect-call targets)."""
    ops: list = []

    def flat(item) -> None:
        kind = item[0]
        if kind == "li":
            ops.append(li(item[1], item[2]))
        elif kind == "alu":
            _, dst, op, a, b, imm = item
            ops.append(alu(dst, op, a, b, imm))
        elif kind == "load":
            _, dst, region, off = item
            ops.append(load(dst, _BASE[region], off))
        elif kind == "iload":
            _, dst, src, region, off = item
            ops.append(alu("r9", AluOp.AND, src, imm=_INDEX_MASK))
            ops.append(alu("r9", AluOp.ADD, "r9", _BASE[region]))
            ops.append(load(dst, "r9", off))
        elif kind == "store":
            _, region, src, off = item
            ops.append(store(_BASE[region], src, off))
        elif kind == "flush":
            ops.append(flush(_BASE[item[1]], item[2]))
        else:
            ops.append(fence())

    def condition(cond) -> int:
        reg, threshold, invert = cond
        ops.append(alu("r8", AluOp.CMPLT, reg, imm=threshold))
        if invert:
            ops.append(alu("r8", AluOp.XOR, "r8", imm=1))
        ops.append(None)  # the branch, patched once its target is known
        return len(ops) - 1

    for item in items:
        kind = item[0]
        if kind == "if":
            at = condition(item[1])
            for sub in item[2]:
                flat(sub)
            ops[at] = br("r8", target=len(ops))
        elif kind == "ifelse":
            at = condition(item[1])
            for sub in item[2]:
                flat(sub)
            skip = len(ops)
            ops.append(None)
            ops[at] = br("r8", target=len(ops))
            for sub in item[3]:
                flat(sub)
            ops[skip] = jmp(len(ops))
        elif kind == "loop":
            ops.append(li("r7", item[1]))
            head = len(ops)
            for sub in item[2]:
                flat(sub)
            ops.append(alu("r7", AluOp.SUB, "r7", imm=1))
            ops.append(br("r7", target=head))
        elif kind == "call":
            ops.append(call(_name(item[1])))
        elif kind == "icall":
            _, taken, other, threshold = item
            ops.append(alu("r8", AluOp.CMPLT, "r0", imm=threshold))
            ops.append(alu("r8", AluOp.MUL, "r8",
                           imm=entry_va[taken] - entry_va[other]))
            ops.append(alu("r13", AluOp.ADD, "r8", imm=entry_va[other]))
            ops.append(icall("r13"))
        else:
            flat(item)
    ops.append(ret())
    return ops


def _name(index: int) -> str:
    return f"jitgen_{index}"


def _place(program: Program, layout) -> Function:
    """Add the program's functions to ``layout``; returns the entry."""
    funcs = [layout.add(Function(_name(i), []))
             for i in range(len(program.funcs))]
    entry_va = {i: func.base_va for i, func in enumerate(funcs)}
    for func, items in zip(funcs, program.funcs):
        func.body.extend(_assemble(items, entry_va))
    return funcs[0]


# ----------------------------------------------------------------------
# Substrates
# ----------------------------------------------------------------------


class _PrivateSpace(AddressSpace):
    """A direct-mapped window (the JIT translates it inline), an
    identity-mapped region reached through ``translate``, and faults
    everywhere else."""

    DIRECT_MAP_LO = 0x10_0000
    DIRECT_MAP_HI = 0x20_0000

    def translate(self, va: int) -> int:
        if self.DIRECT_MAP_LO <= va < self.DIRECT_MAP_HI:
            return va - self.DIRECT_MAP_LO
        if 0x30_0000 <= va < 0x34_0000:
            return va
        raise PageFault(va)


_PRIVATE_BASES = {"r10": 0x10_4000, "r11": 0x30_0000, "r12": 0x7000_0000}


def _on_kernel(scheme: str) -> bool:
    caps = scheme_capabilities(scheme)
    return caps.needs_framework or caps.needs_kernel


def _deploy(program: Program, scheme: str, jit: bool, kernel: bool):
    """A fresh core with ``program`` placed and ``scheme`` armed: returns
    ``(pipeline, entry, context factory)``."""
    if not kernel:
        pipeline = Pipeline(CodeLayout(0x40_0000, stride_ops=512),
                            MainMemory())
        pipeline.set_policy(build_policy(scheme))
        entry = _place(program, pipeline.layout)
        space = _PrivateSpace()
        bases, ctx_id = _PRIVATE_BASES, 1
    else:
        k = MiniKernel(image=shared_image())
        own, other = k.create_process("own"), k.create_process("other")
        k.tag_non_transient(other.aspace.translate(other.heap_va), 4096)
        entry = _place(program, k.layout)
        ctx_id = own.cgroup.cg_id
        trusted = frozenset(_name(i) for i in program.trusted)
        arm(k, scheme, views=(InstructionSpeculationView(
            ctx_id, trusted, k.layout, source="dynamic"),))
        pipeline, space = k.pipeline, own.aspace
        bases = {"r10": own.heap_va, "r11": other.heap_va, "r12": 0x1000}
    pipeline.config.enable_block_cache = jit

    def context(value: int) -> ExecutionContext:
        regs = {reg: 0 for reg in _DATA + ("r7", "r8", "r9", "r13")}
        regs.update(bases, r0=value)
        return ExecutionContext(ctx_id, domain="kernel",
                                address_space=space, initial_regs=regs)

    return pipeline, entry, context


def _execute(program: Program, scheme: str, *, jit: bool,
             journal: bool = False, kernel: bool | None = None) -> dict:
    """Run ``program`` under ``scheme``; everything the model measures."""
    if kernel is None:
        kernel = _on_kernel(scheme)
    pipeline, entry, context = _deploy(program, scheme, jit, kernel)
    events = EventJournal() if journal else None
    scope = instrumented(journal=events) if journal \
        else contextlib.nullcontext()
    with scope:
        runs = [dataclasses.asdict(pipeline.run(entry, context(value)))
                for value in _INPUTS]
    h, bu = pipeline.hierarchy, pipeline.branch_unit
    fence_stats = getattr(pipeline.policy, "fence_stats", None)
    return {
        "runs": runs,
        "memory": pipeline.memory.digest(),
        "tlb": (vars(pipeline.tlb.stats), list(pipeline.tlb._lru)),
        **{level.name: (vars(level.stats), [list(s) for s in level._sets])
           for level in (h.l1i, h.l1d, h.l2)},
        "predictor": (sorted(bu.conditional._counters.items()),
                      sorted(bu.btb._entries.items()),
                      list(bu.rsb._stack)),
        "policy_fences": dict(fence_stats.by_reason) if fence_stats else {},
        "journal": events.to_jsonl() if events is not None else None,
        "jit_hits": pipeline._blockcache.hits
        if pipeline._blockcache is not None else 0,
    }


def _arch(state: dict) -> dict:
    return {"regs": [run["regs"] for run in state["runs"]],
            "memory": state["memory"]}


def _diff(off: dict, on: dict) -> list[str]:
    """Keys (``runs[i].field`` for per-run results) that differ."""
    keys = []
    for i, (a, b) in enumerate(zip(off["runs"], on["runs"])):
        keys += [f"runs[{i}].{k}" for k in a if a[k] != b[k]]
    keys += [k for k in off if k not in ("runs", "jit_hits")
             and off[k] != on[k]]
    return keys


def check_jit_parity(program: Program, scheme: str,
                     journal: bool = False) -> dict:
    """Check 1; returns the JIT-on state."""
    off = _execute(program, scheme, jit=False, journal=journal)
    on = _execute(program, scheme, jit=True, journal=journal)
    diverged = _diff(off, on)
    assert not diverged, (scheme, diverged, program)
    return on


def check_schemes_agree(program: Program) -> None:
    """Check 2, per substrate, against ``unsafe`` on the same one."""
    for kernel in (False, True):
        base = _arch(_execute(program, "unsafe", jit=False, kernel=kernel))
        for scheme in SCHEMES:
            if _on_kernel(scheme) is kernel and scheme != "unsafe":
                other = _arch(_execute(program, scheme, jit=False))
                assert other == base, (scheme, program)


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------

#: Shrunk or hand-built programs every scheme must keep passing.
PINNED = {
    # Six ops: a load at the loop head and the back-edge branch, so every
    # trip after the first enters the head block with a prediction in
    # flight.  Under ``fence`` a JIT that skipped the policy there fenced
    # 64 loads over the four runs where the interpreter fenced 76, with
    # equal cycles -- the fence counts, not the cycles, expose it.
    "loop-head-load": Program(((
        ("loop", 4, (("load", "r2", "in", 0),
                     ("alu", "r3", AluOp.ADD, "r3", "r2", 0))),),)),
}


class TestPinned:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_jit_off_equals_on(self, case, scheme):
        check_jit_parity(PINNED[case], scheme)

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_schemes_agree(self, case):
        check_schemes_agree(PINNED[case])

    def test_loop_replays_and_fences(self):
        """The pinned loop is a real test of the speculative-load path:
        under ``fence`` its loads fence and, with the JIT on, its blocks
        replay."""
        on = check_jit_parity(PINNED["loop-head-load"], "fence")
        assert sum(run["fenced_loads"].get("fence", 0)
                   for run in on["runs"]) > 0
        assert on["jit_hits"] > 0


# ----------------------------------------------------------------------
# Generated corpus
# ----------------------------------------------------------------------

_BOUNDED = settings(max_examples=6, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
_LARGE = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


class TestGenerated:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @_BOUNDED
    @given(program=programs(), journal=st.booleans())
    def test_jit_off_equals_on(self, scheme, program, journal):
        check_jit_parity(program, scheme, journal)

    @_BOUNDED
    @given(program=programs())
    def test_schemes_agree(self, program):
        check_schemes_agree(program)


@pytest.mark.slow
class TestGeneratedLarge:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @_LARGE
    @given(program=programs(), journal=st.booleans())
    def test_jit_off_equals_on(self, scheme, program, journal):
        check_jit_parity(program, scheme, journal)

    @_LARGE
    @given(program=programs())
    def test_schemes_agree(self, program):
        check_schemes_agree(program)
