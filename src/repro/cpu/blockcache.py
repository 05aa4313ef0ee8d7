"""Basic-block trace memoization ("block JIT") for the micro-op interpreter.

The pipeline's per-micro-op dispatch loop is the global hot path: every
serve request, grid cell and attack PoC pays Python-level fetch/decode
/issue bookkeeping for each op.  This module removes that overhead for
the committed path by compiling each function's *basic blocks* --
maximal straight-line runs of {ALU, LOAD, STORE, FLUSH, NOP} ops,
optionally absorbing a trailing BR/JMP terminator -- into one
specialized Python **region function** per kernel function.  Every
operand, virtual address, instruction-cache line and latency constant is
baked in as a literal, and an in-frame ``while`` dispatcher chains block
to block (loop back-edges included) without returning to the
interpreter, so a spin loop executes entirely inside one Python frame.
Control returns to the interpreter only at ops the region does not
compile (CALL/ICALL/IJMP/RET/FENCE/KRET), at a block whose epoch token
is stale, or when the committed-op budget is too small for the next
block.

TLB lookup, L1/L2 cache probes and fills, main-memory reads/writes, the
conditional predictor, the in-flight-prediction prune and the kernel
direct-map translation fast path are all inlined into the generated
source, so a replayed op performs no Python calls on its common path;
a speculative load under a non-passive policy calls the pipeline's one
speculative-load method (below).  Within a block, register values and
scoreboard ready-times are forwarded through locals and dead
intermediate dictionary writes are elided (the architectural
dictionaries always hold the final state at every point an outside
observer -- the interpreter, the transient executor, a fault path -- can
look; the speculative-load method reads neither of them).  The inlined
semantics are transcribed from the stock subsystem models, so a pipeline
built from subclassed models, or with the next-line prefetcher on, never
arms the cache and simply interprets (:func:`jit_eligible`).

Exactness contract
------------------

A compiled block performs *the same float operations in the same order*
as the interpreter (including the per-op ``clock += base_cpi``
accumulation, TLB/cache side effects, ROB occupancy checks and scoreboard
updates), so architectural state **and cycle counts** are byte-identical
to the interpreter -- the conformance oracle and the generated micro-op
corpus (``tests/test_blockjit_generated.py``) check this for every
registered scheme.

Speculative loads are shared, not transcribed.  A generated load that
finds a prediction in flight calls the pipeline's ``_spec_load`` with
the operands the interpreter passes it: that one method queries the
policy, stalls a blocked load to its visibility point, reads around the
caches for InvisiSpec, freezes LRU for DOM and stamps the taint.  Only
two load paths are inlined, and neither consults the policy: the
non-speculative load, and the speculative one under a *passive* policy
(the UNSAFE baseline) with no event journal active, whose statically
allowed path is a plain access plus the taint stamp.  So every block
replays whether or not predictions are in flight, under every scheme;
stores and flushes never consult the prediction window in this model.

Invalidation
------------

Compiled code is keyed on body content: the decode-table staleness key
(body identity, ``body.version``, ``base_va``; see
:class:`repro.cpu.isa.BodyList`) invalidates region indexes whenever a
body is mutated, re-placed, or ``invalidate_decode()`` is called.
Memoized *blocks* are additionally armed per-block on a
speculation-environment epoch (:func:`run_epoch`) -- (policy generation,
ISV/DSV view epoch, fault-plane arming generation, journal presence).  A
freshly compiled region's token slots hold the :data:`COLD` sentinel, so
each block's first execution re-interprets once (a *cold* miss,
tiered-JIT style) before its slot is armed with the live token.  When
any epoch component changes (``install_isv``/``shrink_isv`` bump the
view epoch, entering or leaving ``instrumented(faults=...)`` bumps the
arming generation, ``set_policy`` bumps the policy generation), the next
execution of *each* armed block re-interprets once (an
*epoch-invalidation* miss, also counted in ``invalidations``) before
that block's token slot is re-armed.

Counter conservation: ``hits + misses == block executions +
uncompilable-function entries`` -- every time control reaches a leader
whose block is compiled, exactly one of the two counters is bumped
(in-region replays count hits; token or budget stops hand the block
back to the interpreter and count one miss), and entering a function
with no compilable blocks while the cache is armed counts one
*uncompilable* miss.  Misses are further split by reason
(:data:`MISS_REASONS`) with ``sum(miss_reasons.values()) == misses``;
the pipeline attributes them per tenant x scheme x kernel function for
the serve dashboard.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort

from repro.cpu.branch import ConditionalPredictor
from repro.cpu.cache import CacheHierarchy, SetAssociativeCache
from repro.cpu.isa import AluOp, DecodedBody, Function, MicroOp, Op
from repro.cpu.memsys import MainMemory, PageFault, TLB
from repro.obs.instruments import INSTRUMENTS

#: Ops a block may contain in its straight-line body.
_STRAIGHT = frozenset((Op.ALU, Op.LOAD, Op.STORE, Op.FLUSH, Op.NOP))

#: Ops that end a block.  BR and JMP are *absorbed* (compiled as the
#: block's terminator); the rest are left to the interpreter.
_TERMINATORS = frozenset((Op.BR, Op.JMP, Op.CALL, Op.ICALL, Op.IJMP,
                          Op.RET, Op.FENCE, Op.KRET))

_U64 = (1 << 64) - 1

#: Region stop codes (the last element of a region's return tuple).
STOP_EXIT = 0    # reached an op the region does not compile
STOP_BUDGET = 1  # remaining max_ops budget too small for the block
STOP_STALE = 2   # the block's epoch token slot is stale (or cold)

#: Token slots of a freshly compiled region are armed with this
#: sentinel: each block's *first* arrival token-mismatches and
#: re-interprets once (a "cold" miss, tiered-JIT style) before
#: :meth:`CompiledRegion.arm` installs the live epoch token.  The run
#: loop distinguishes cold misses from epoch invalidations by checking
#: the slot for this sentinel before re-arming.
COLD = object()

#: Miss-reason taxonomy (attribution keys used by the pipeline and the
#: serve dashboard): ``cold`` (first arrival of a compiled block),
#: ``op-budget`` (remaining committed-op budget smaller than the block),
#: ``epoch-invalidation`` (policy/view/fault/journal epoch bumped) and
#: ``uncompilable`` (run entry / CALL / ICALL / IJMP into a function
#: with no compilable blocks while the cache was armed; returns into a
#: caller are not re-counted).
MISS_REASONS = ("cold", "op-budget", "epoch-invalidation", "uncompilable")


def jit_eligible(pipeline) -> bool:
    """Whether ``pipeline`` may arm the block cache at all.

    Generated blocks inline semantics transcribed from exactly the stock
    subsystem classes, so any subclass -- or an enabled prefetcher, whose
    fills the inlined data path does not replicate -- leaves the
    pipeline interpreting.
    """
    h = pipeline.hierarchy
    return (type(h) is CacheHierarchy
            and type(h.l1i) is SetAssociativeCache
            and type(h.l1d) is SetAssociativeCache
            and type(h.l2) is SetAssociativeCache
            and type(pipeline.tlb) is TLB
            and type(pipeline.memory) is MainMemory
            and type(pipeline.branch_unit.conditional)
            is ConditionalPredictor
            and not h.prefetcher)


def run_epoch(pipeline) -> tuple:
    """The speculation-environment epoch a run's block arming keys on."""
    policy = pipeline.policy
    framework = getattr(policy, "framework", None)
    view_epoch = getattr(framework, "view_epoch", 0)
    return (pipeline._policy_gen, view_epoch, INSTRUMENTS.generation,
            INSTRUMENTS.journal is not None)


def block_leaders(body: list[MicroOp]) -> set[int]:
    """Leader indices: op 0, every op after a terminator, branch targets."""
    leaders = {0}
    limit = len(body)
    for index, op in enumerate(body):
        kind = op.op
        if kind in _TERMINATORS:
            leaders.add(index + 1)
            if kind in (Op.BR, Op.JMP) and 0 <= op.target <= limit:
                leaders.add(op.target)
    return leaders


def block_spans(body: list[MicroOp],
                leaders: set[int] | None = None,
                ) -> list[tuple[int, int, Op | None]]:
    """Compilable spans ``(start, straight_end, terminator_kind)``.

    ``start .. straight_end`` is the straight-line run;
    ``terminator_kind`` is :data:`Op.BR`/:data:`Op.JMP` when the
    terminator at ``straight_end`` is absorbed into the block, else None.
    """
    if leaders is None:
        leaders = block_leaders(body)
    limit = len(body)
    spans = []
    for start in sorted(leaders):
        if start >= limit:
            continue
        end = start
        while end < limit and body[end].op in _STRAIGHT \
                and (end == start or end not in leaders):
            end += 1
        term = None
        if end < limit and (end == start or end not in leaders):
            kind = body[end].op
            if kind in (Op.BR, Op.JMP):
                term = kind
        if end == start and term is None:
            continue  # nothing compilable at this leader
        spans.append((start, end, term))
    return spans


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


def _alu_expr(op: MicroOp, read) -> str:
    """The interpreter's ``_alu_eval`` as an inline expression.

    ``read(reg, strict)`` yields the source expression for a register
    value (a forwarded local or a ``regs`` dictionary access).
    """
    kind = op.alu_op
    if kind is AluOp.LI:
        return repr(op.imm)
    a = read(op.src1, False)
    if kind is AluOp.MOV:
        return a
    b = read(op.src2, False) if op.src2 is not None else repr(op.imm)
    if kind is AluOp.ADD:
        return f"{a} + {b}"
    if kind is AluOp.SUB:
        return f"{a} - {b}"
    if kind is AluOp.AND:
        return f"{a} & {b}"
    if kind is AluOp.OR:
        return f"{a} | {b}"
    if kind is AluOp.XOR:
        return f"{a} ^ {b}"
    if kind is AluOp.SHL:
        return f"{a} << ({b} & 63)"
    if kind is AluOp.SHR:
        return f"{a} >> ({b} & 63)"
    if kind is AluOp.MUL:
        return f"{a} * {b}"
    if kind is AluOp.CMPLT:
        return f"1 if {a} < {b} else 0"
    if kind is AluOp.CMPLTU:
        return f"1 if ({a} & {_U64}) < ({b} & {_U64}) else 0"
    if kind is AluOp.CMPEQ:
        return f"1 if {a} == {b} else 0"
    raise ValueError(f"unknown ALU op: {kind}")


class _SegmentWriter:
    """Source emitter with in-block register value/ready-time forwarding.

    Registers written earlier in the block are read through locals rather
    than the ``regs``/``reg_ready`` dictionaries, and only the *last*
    write of each register materializes the dictionary entry -- sound in
    straight-line code because nothing outside the generated ops can
    observe the dictionaries mid-block (the transient executor only runs
    at the BR terminator, after every final write has been emitted, and
    the speculative-load call gets its operands as arguments;
    ``taint_until`` is never forwarded or deferred since its del/set
    protocol is consulted per op).
    """

    def __init__(self, last_write: dict[str, int], base: int) -> None:
        self.lines: list[str] = []
        self.val: dict[str, str] = {}  # reg -> forwarded value local
        self.rdy: dict[str, str] = {}  # reg -> forwarded ready-time local
        self.last_write = last_write
        self.base = base

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.base + depth) + line)

    def read(self, reg: str, strict: bool) -> str:
        local = self.val.get(reg)
        if local is not None:
            return local
        return f"regs[{reg!r}]" if strict else f"regs.get({reg!r}, 0)"

    def emit_readiness(self, reg: str, depth: int = 0) -> None:
        """``t = max(t, reg_ready[reg])`` via the forwarded local if any."""
        local = self.rdy.get(reg)
        if local is not None:
            self.emit(f"if {local} > t:", depth)
            self.emit(f"t = {local}", depth + 1)
        else:
            self.emit(f"_x = reg_ready.get({reg!r})", depth)
            self.emit("if _x is not None and _x > t:", depth)
            self.emit("t = _x", depth + 1)

    def emit_write(self, j: int, reg: str, value_local: str,
                   ready_local: str, depth: int = 0) -> None:
        """Record a register write; the dictionaries are updated only at
        the register's final write in the block."""
        if self.last_write[reg] == j:
            self.emit(f"regs[{reg!r}] = {value_local}", depth)
            self.emit(f"reg_ready[{reg!r}] = {ready_local}", depth)
        self.val[reg] = value_local
        self.rdy[reg] = ready_local


def _emit_fetch(w: _SegmentWriter, consts: dict, va: int, line: int,
                entry: bool) -> None:
    """Instruction fetch at a cache-line boundary.

    ``entry`` guards on the runtime incoming line; interior boundaries
    are static and always fetch.  The L1I/L2 probe and fill are inlined;
    stats/LRU/fill side effects match ``access_inst`` exactly.
    """
    depth = 0
    if entry:
        w.emit(f"if {line} != last_fetch_line:")
        depth = 1
    w.emit("facc[0] += 1", depth)
    ln_i = va // consts["l1i_line"]
    ln_2 = va // consts["l2_line"]
    stall_l2 = consts["stall_l2"]
    stall_dram = consts["stall_dram"]
    w.emit(f"_w = _i1w[{ln_i % consts['l1i_sets']}]", depth)
    w.emit(f"if {ln_i} in _w:", depth)
    w.emit("_i1s.hits += 1", depth + 1)
    w.emit(f"if _w[0] != {ln_i}:", depth + 1)
    w.emit(f"_w.remove({ln_i})", depth + 2)
    w.emit(f"_w.insert(0, {ln_i})", depth + 2)
    w.emit("else:", depth)
    w.emit("_i1s.misses += 1", depth + 1)
    w.emit(f"_w2 = _l2w[{ln_2 % consts['l2_sets']}]", depth + 1)
    w.emit(f"if {ln_2} in _w2:", depth + 1)
    w.emit("_l2s.hits += 1", depth + 2)
    w.emit(f"if _w2[0] != {ln_2}:", depth + 2)
    w.emit(f"_w2.remove({ln_2})", depth + 3)
    w.emit(f"_w2.insert(0, {ln_2})", depth + 3)
    w.emit(f"clock += {stall_l2}", depth + 2)
    w.emit(f"facc[1] += {stall_l2}", depth + 2)
    w.emit("else:", depth + 1)
    w.emit("_l2s.misses += 1", depth + 2)
    w.emit(f"if len(_w2) >= {consts['l2_ways']}:", depth + 2)
    w.emit("_w2.pop()", depth + 3)
    w.emit("_l2s.evictions += 1", depth + 3)
    w.emit(f"_w2.insert(0, {ln_2})", depth + 2)
    w.emit("_l2s.fills += 1", depth + 2)
    w.emit(f"clock += {stall_dram}", depth + 2)
    w.emit(f"facc[1] += {stall_dram}", depth + 2)
    # L1I fill: the line just missed L1I, so membership is known-false.
    w.emit(f"if len(_w) >= {consts['l1i_ways']}:", depth + 1)
    w.emit("_w.pop()", depth + 2)
    w.emit("_i1s.evictions += 1", depth + 2)
    w.emit(f"_w.insert(0, {ln_i})", depth + 1)
    w.emit("_i1s.fills += 1", depth + 1)


def _emit_translate(w: _SegmentWriter, src_expr: str, imm: int,
                    depth: int = 0) -> None:
    """``pa`` for ``src + imm``, or -1 on an architectural page fault.

    The direct-map window check mirrors the first test of the kernel
    address space's ``translate`` (``DIRECT_MAP_LO``/``HI`` are published
    by address spaces whose direct-map translation is side-effect-free);
    everything else -- including the (1, 0) sentinel window of address
    spaces without the fast path -- falls back to the bound method.
    """
    w.emit(f"va = {src_expr} + {imm}", depth)
    w.emit("if _dml <= va < _dmh:", depth)
    w.emit("pa = va - _dml", depth + 1)
    w.emit("else:", depth)
    w.emit("try:", depth + 1)
    w.emit("pa = translate(va)", depth + 2)
    w.emit("except _PF:", depth + 1)
    w.emit("pa = -1", depth + 2)


def _emit_tlb(w: _SegmentWriter, consts: dict, charge: bool,
              depth: int = 0) -> None:
    """Inline ``tlb.access(va)``: LRU + stats; ``charge`` adds the miss
    penalty to ``t`` (stores run the access at zero timing weight)."""
    w.emit("_pg = va >> 12", depth)
    w.emit("if _pg in _tl:", depth)
    w.emit("_ts.hits += 1", depth + 1)
    w.emit("if _tl[0] != _pg:", depth + 1)
    w.emit("_tl.remove(_pg)", depth + 2)
    w.emit("_tl.insert(0, _pg)", depth + 2)
    w.emit("else:", depth)
    w.emit("_ts.misses += 1", depth + 1)
    w.emit(f"if len(_tl) >= {consts['tlb_entries']}:", depth + 1)
    w.emit("_tl.pop()", depth + 2)
    w.emit("_tl.insert(0, _pg)", depth + 1)
    if charge:
        w.emit(f"t += {consts['tlb_penalty']}", depth + 1)


def _emit_spec_prune(w: _SegmentWriter, depth: int = 0) -> None:
    """Inline ``Pipeline._spec_until``: ``su`` = latest unresolved
    prediction after ``t`` (0.0 if none), dropping the resolved entries.
    The list is ascending, so ``su`` is its last entry and the resolved
    entries are a prefix: the whole list when ``su <= t``, else cut with
    one ``bisect_right`` only when the first entry has resolved.
    """
    w.emit("if unresolved:", depth)
    w.emit("su = unresolved[-1]", depth + 1)
    w.emit("if su <= t:", depth + 1)
    w.emit("unresolved.clear()", depth + 2)
    w.emit("su = 0.0", depth + 2)
    w.emit("elif unresolved[0] <= t:", depth + 1)
    w.emit("del unresolved[:_br(unresolved, t)]", depth + 2)
    w.emit("else:", depth)
    w.emit("su = 0.0", depth + 1)


def _emit_l1d_fill(w: _SegmentWriter, consts: dict, known_absent: bool,
                   depth: int = 0) -> None:
    """Inline ``l1d.fill(pa)`` over the precomputed ``_ln``/``_w``."""
    if known_absent:
        w.emit(f"if len(_w) >= {consts['l1d_ways']}:", depth)
        w.emit("_w.pop()", depth + 1)
        w.emit("_d1s.evictions += 1", depth + 1)
    else:
        w.emit("if _ln in _w:", depth)
        w.emit("_w.remove(_ln)", depth + 1)
        w.emit(f"elif len(_w) >= {consts['l1d_ways']}:", depth)
        w.emit("_w.pop()", depth + 1)
        w.emit("_d1s.evictions += 1", depth + 1)
    w.emit("_w.insert(0, _ln)", depth)
    w.emit("_d1s.fills += 1", depth)


def _emit_segment(body: list[MicroOp], dec: DecodedBody, start: int,
                  end: int, term: Op | None, consts: dict, slot: int,
                  first: bool) -> list[str]:
    """Emit one ``if idx == <leader>:`` arm of the region dispatcher."""
    cpi = repr(float(consts["base_cpi"]))
    rob_entries = int(consts["rob_entries"])
    br_latency = repr(float(consts["branch_resolve_latency"]))
    stt_lag = repr(float(consts["stt_resolution_lag"]))
    penalty = repr(float(consts["mispredict_penalty"]))

    last = end - 1 if term is None else end
    n_ops = last - start + 1
    last_write: dict[str, int] = {}
    for j in range(start, last + 1):
        op = body[j]
        if op.op in (Op.ALU, Op.LOAD):
            last_write[op.dst] = j

    # Arm header + replay guards live one level up from the block body.
    w = _SegmentWriter(last_write, base=3)
    emit = w.emit
    emit(f"{'if' if first else 'elif'} idx == {start}:")
    emit(f"if _tks[{slot}] is not _tk:", 1)
    emit(f"_stop = {STOP_STALE}", 2)
    emit("break", 2)
    emit(f"if _rem < {n_ops}:", 1)
    emit(f"_stop = {STOP_BUDGET}", 2)
    emit("break", 2)
    emit("_hits += 1", 1)

    w.base = 4  # block body depth
    n_loads = 0
    for j in range(start, last + 1):
        op = body[j]
        emit(f"clock += {cpi}")
        # Fetch: line boundaries are static within a straight run; only
        # the entry op needs a runtime check against the incoming line.
        if j == start:
            _emit_fetch(w, consts, dec.vas[j], dec.lines[j], entry=True)
        elif dec.lines[j] != dec.lines[j - 1]:
            _emit_fetch(w, consts, dec.vas[j], dec.lines[j], entry=False)
        emit(f"if len(rob) >= {rob_entries}:")
        emit("_h = rob_popleft()", 1)
        emit("if _h > clock:", 1)
        emit("clock = _h", 2)

        kind = op.op
        if kind is Op.ALU:
            vloc, yloc = f"_v{j}", f"_y{j}"
            reads = dec.reads[j]
            if reads:
                emit("t = clock")
                for src in reads:
                    w.emit_readiness(src)
                t_expr = "t"
            else:
                t_expr = "clock"
            emit(f"{vloc} = {_alu_expr(op, w.read)}")
            emit(f"{yloc} = {t_expr} + 1.0")
            # Taint propagation, specialized on source arity.  Stored
            # taints are always positive resolve times, so ``taint > t``
            # (t >= 0) reduces to presence + magnitude of the source
            # taints and the ``taint = 0.0`` accumulator is not needed.
            emit("if taint_until:")
            if not reads:
                emit(f"if {op.dst!r} in taint_until:", 1)
                emit(f"del taint_until[{op.dst!r}]", 2)
            else:
                emit(f"_x = taint_until.get({reads[0]!r})", 1)
                for src in reads[1:]:
                    emit(f"_x2 = taint_until.get({src!r})", 1)
                    emit("if _x2 is not None and"
                         " (_x is None or _x2 > _x):", 1)
                    emit("_x = _x2", 2)
                emit(f"if _x is not None and _x > {t_expr}:", 1)
                emit(f"taint_until[{op.dst!r}] = _x", 2)
                emit(f"elif {op.dst!r} in taint_until:", 1)
                emit(f"del taint_until[{op.dst!r}]", 2)
            w.emit_write(j, op.dst, vloc, yloc)
            emit(f"rob_append({yloc})")

        elif kind is Op.LOAD:
            n_loads += 1
            vloc, yloc = f"_v{j}", f"_y{j}"
            emit("t = clock")
            w.emit_readiness(op.src1)
            _emit_translate(w, w.read(op.src1, True), op.imm)
            emit("if pa < 0:")
            # Committed-path fault: fixed-cost, reads zero (guard path);
            # the interpreter's fault arm touches no taint state.
            emit(f"{vloc} = 0", 1)
            emit(f"{yloc} = _e = t + 50.0", 1)
            emit("else:")
            _emit_tlb(w, consts, charge=True, depth=1)
            _emit_spec_prune(w, depth=1)
            # Under a prediction in flight the load takes the pipeline's
            # one speculative-load path (policy query, visibility-point
            # stall, read-around, LRU freeze, taint stamp); a passive
            # policy's allow path is the inline one below.
            emit("if su > 0.0 and not _fr:", 1)
            emit(f"{vloc}, {yloc}, _e = _sl(func, {j}, {op.dst!r}, va, pa,"
                 f" t, su, taint_until.get({op.src1!r}, 0.0), context,"
                 " result, taint_until)", 2)
            emit("else:", 1)
            emit(f"_ln = pa // {consts['l1d_line']}", 2)
            emit(f"_w = _d1w[_ln % {consts['l1d_sets']}]", 2)
            emit("if _ln in _w:", 2)
            emit("_d1s.hits += 1", 3)
            emit("if _w[0] != _ln:", 3)
            emit("_w.remove(_ln)", 4)
            emit("_w.insert(0, _ln)", 4)
            emit(f"{yloc} = _e = t + {consts['lat_l1']}", 3)
            emit("else:", 2)
            emit("_d1s.misses += 1", 3)
            if consts["l2_line"] == consts["l1d_line"]:
                emit(f"_w2 = _l2w[_ln % {consts['l2_sets']}]", 3)
                l2tag = "_ln"
            else:  # pragma: no cover - stock geometry shares the line
                emit(f"_l2 = pa // {consts['l2_line']}", 3)
                emit(f"_w2 = _l2w[_l2 % {consts['l2_sets']}]", 3)
                l2tag = "_l2"
            emit(f"if {l2tag} in _w2:", 3)
            emit("_l2s.hits += 1", 4)
            emit(f"if _w2[0] != {l2tag}:", 4)
            emit(f"_w2.remove({l2tag})", 5)
            emit(f"_w2.insert(0, {l2tag})", 5)
            emit(f"{yloc} = _e = t + {consts['lat_l2']}", 4)
            emit("else:", 3)
            emit("_l2s.misses += 1", 4)
            emit(f"if len(_w2) >= {consts['l2_ways']}:", 4)
            emit("_w2.pop()", 5)
            emit("_l2s.evictions += 1", 5)
            emit(f"_w2.insert(0, {l2tag})", 4)
            emit("_l2s.fills += 1", 4)
            emit(f"{yloc} = _e = t + {consts['lat_dram']}", 4)
            _emit_l1d_fill(w, consts, known_absent=True, depth=3)
            emit("_x = _md.get(pa)", 2)
            emit(f"{vloc} = _x if _x is not None"
                 f" else (pa * 2654435761) & 255", 2)
            emit("if su > 0.0:", 2)
            emit("result.speculative_loads += 1", 3)
            emit(f"_st = taint_until.get({op.src1!r}, 0.0)", 3)
            emit(f"taint_until[{op.dst!r}] = su if su >= _st else _st", 3)
            emit(f"elif {op.dst!r} in taint_until:", 2)
            emit(f"del taint_until[{op.dst!r}]", 3)
            w.emit_write(j, op.dst, vloc, yloc)
            emit("rob_append(_e)")

        elif kind is Op.STORE:
            emit("t = clock")
            for src in dec.reads[j]:
                w.emit_readiness(src)
            _emit_translate(w, w.read(op.src1, True), op.imm)
            emit("if pa >= 0:")
            # The zero-weight TLB access still updates TLB LRU/stats.
            _emit_tlb(w, consts, charge=False, depth=1)
            emit(f"_md[pa] = {w.read(op.src2, True)} & {_U64}", 1)
            emit(f"_ln = pa // {consts['l1d_line']}", 1)
            emit(f"_w = _d1w[_ln % {consts['l1d_sets']}]", 1)
            _emit_l1d_fill(w, consts, known_absent=False, depth=1)
            emit("rob_append(t + 1.0)")

        elif kind is Op.FLUSH:
            _emit_translate(w, w.read(op.src1, True), op.imm)
            emit("if pa >= 0:")
            emit("_fd(pa)", 1)
            emit("rob_append(clock)")

        elif kind is Op.NOP:
            emit("rob_append(clock)")

        elif kind is Op.JMP:
            emit("rob_append(clock)")

        elif kind is Op.BR:
            pc = dec.vas[j]
            cond = w.read(op.src1, True)
            bi = (pc >> 2) % consts["bp_table"]
            emit(f"_c = _bc.get({bi}, {consts['bp_weak']})")
            emit(f"_actual = {cond} != 0")
            emit("t = clock")
            w.emit_readiness(op.src1)
            emit(f"resolve = t + {br_latency}")
            emit("if _stt:")
            emit(f"_tt = taint_until.get({op.src1!r}, 0.0)", 1)
            emit("if _tt > 0.0:", 1)
            emit(f"_d = _tt + {stt_lag}", 2)
            emit("if _d > resolve:", 2)
            emit("resolve = _d", 3)

            def mispredict(pred_taken: bool, depth: int) -> None:
                wrong = op.target if pred_taken else j + 1
                emit("result.mispredictions += 1", depth)
                emit(f"_rt(func, {wrong}, regs, clock, resolve, context,"
                     " translate, result, taint_until=taint_until)", depth)
                emit(f"clock = resolve + {penalty}", depth)

            # predict = counter >= 2; the update's saturating write
            # happens before the outcome comparison, as interpreted.
            emit("if _actual:")
            emit(f"_bc[{bi}] = _c + 1 if _c < 3 else 3", 1)
            emit(f"if _c >= {consts['bp_weak']}:", 1)
            emit("_ins(unresolved, resolve)", 2)
            emit("else:", 1)
            mispredict(pred_taken=False, depth=2)
            emit("else:")
            emit(f"_bc[{bi}] = _c - 1 if _c > 0 else 0", 1)
            emit(f"if _c >= {consts['bp_weak']}:", 1)
            mispredict(pred_taken=True, depth=2)
            emit("else:", 1)
            emit("_ins(unresolved, resolve)", 2)
            emit("rob_append(resolve)")

        else:  # pragma: no cover - spans never include other kinds
            raise ValueError(f"uncompilable op in block: {kind}")

    emit(f"result.committed_ops += {n_ops}")
    if n_loads:
        emit(f"result.loads += {n_loads}")
    emit(f"_rem -= {n_ops}")
    emit(f"last_fetch_line = {dec.lines[last]}")
    if term is Op.BR:
        emit(f"idx = {body[end].target} if _actual else {end + 1}")
    elif term is Op.JMP:
        emit(f"idx = {body[end].target}")
    else:
        emit(f"idx = {end}")
    return w.lines


def generate_source(body: list[MicroOp], dec: DecodedBody,
                    spans: list[tuple[int, int, Op | None]],
                    consts: dict) -> str:
    """Generate the ``make_region`` factory source for one function.

    The region function holds every compiled block of the function as an
    arm of an in-frame dispatcher, so chains of blocks -- loop back-edges
    included -- replay without returning to the interpreter.  The emitted
    code replicates the interpreter's per-op semantics *exactly*: same
    float additions in the same order, same cache/TLB side effects.  (All
    timing quantities in this model are multiples of 0.25 far below
    2**50, so every float addition is exact and replay order equivalence
    is bit-for-bit.)  The factory closes over the pipeline's bound
    subsystem state; one compiled code object is shareable across
    pipelines with identical configuration.
    """
    out = [
        "def make_region(_fd, _rt, _sl, _PF, _ins, _br, _i1w, _i1s, _d1w,"
        " _d1s, _l2w, _l2s, _tl, _ts, _md, _bc):",
        "    def region(regs, reg_ready, taint_until, unresolved, rob,"
        " clock, last_fetch_line, result, translate, facc, func,"
        " context, _stt, _dml, _dmh, idx, _fr, _mc, _tks, _tk):",
        "        rob_append = rob.append",
        "        rob_popleft = rob.popleft",
        "        _hits = 0",
        f"        _stop = {STOP_EXIT}",
        "        _rem = _mc - result.committed_ops",
        "        while True:",
    ]
    for slot, (start, end, term) in enumerate(spans):
        out.extend(_emit_segment(body, dec, start, end, term, consts,
                                 slot, first=slot == 0))
    out.append("            else:")
    out.append("                break")
    out.append("        return clock, idx, last_fetch_line, _hits, _stop")
    out.append("    return region")
    return "\n".join(out) + "\n"


#: Compiled code objects shared process-wide, keyed by source digest --
#: identical source is identical behaviour, so the content hash of the
#: generated code *is* the content hash of the region.
_CODE_CACHE: dict[str, object] = {}

#: Generated source shared process-wide, so short-lived pipelines over a
#: shared image (e.g. one kernel per serve cell) do not re-run codegen
#: for the same functions.  Keyed by function identity, decode version,
#: placement, and the baked-in config constants; the value pins a strong
#: reference to the function so its ``id`` can never be reused while the
#: entry lives.  Grows with the set of distinct compiled functions, like
#: ``_CODE_CACHE``.
_SOURCE_CACHE: dict[tuple, tuple[object, str]] = {}


def _factory_for(source: str, digest: str):
    code = _CODE_CACHE.get(digest)
    if code is None:
        code = compile(source, f"<region:{digest[:12]}>", "exec")
        _CODE_CACHE[digest] = code
    namespace: dict = {}
    exec(code, namespace)
    return namespace["make_region"]


class CompiledRegion:
    """One function's compiled blocks behind an in-frame dispatcher.

    ``tokens`` holds one epoch-token slot per block (indexed by
    ``slot_of[leader]``); a block replays only while its slot matches the
    run's current token, preserving per-block invalidation semantics.
    """

    __slots__ = ("fn", "tokens", "slot_of", "digest", "n_blocks")

    def __init__(self, fn, leaders: list[int], digest: str) -> None:
        self.fn = fn
        # Armed COLD: every block's first arrival re-interprets once
        # (a cold miss) before arm() installs the live epoch token.
        self.tokens = [COLD] * len(leaders)
        self.slot_of = {leader: slot for slot, leader in enumerate(leaders)}
        self.digest = digest
        self.n_blocks = len(leaders)

    def arm(self, leader: int, token) -> None:
        """Re-arm one block's slot after its cold or post-invalidation
        re-interpretation."""
        self.tokens[self.slot_of[leader]] = token


class BlockCache:
    """Per-pipeline block JIT: compiled regions + hit/miss stats.

    Compiled code objects are shared process-wide (content-hashed);
    the per-pipeline state is the binding of subsystem state (cache sets
    and stats, TLB, memory, predictor counters, the flush and transient
    executor methods) plus the per-function region indexes and the epoch
    token that arms blocks.  Build one only for a pipeline that
    :func:`jit_eligible` accepts.
    """

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        hierarchy = pipeline.hierarchy
        self._bindings = (
            hierarchy.flush_data, pipeline._run_transient,
            pipeline._spec_load, PageFault, insort, bisect_right,
            hierarchy.l1i._sets, hierarchy.l1i.stats,
            hierarchy.l1d._sets, hierarchy.l1d.stats,
            hierarchy.l2._sets, hierarchy.l2.stats,
            pipeline.tlb._lru, pipeline.tlb.stats,
            pipeline.memory._data,
            pipeline.branch_unit.conditional._counters,
        )
        self._bound: dict[str, object] = {}
        self._indexes: dict[str, tuple] = {}
        self._epoch: tuple | None = None
        self._cfg_key: tuple | None = None
        self._token: object = object()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.compiled_blocks = 0
        self.compiled_functions = 0
        #: Misses split by :data:`MISS_REASONS` key; the pipeline run
        #: loop accumulates per-run dicts into this (conservation:
        #: ``sum(miss_reasons.values()) == misses``).
        self.miss_reasons: dict[str, int] = {}

    # -- epoch / config validity ---------------------------------------

    def _consts(self) -> dict:
        cfg = self.pipeline.config
        h = self.pipeline.hierarchy
        tlb = self.pipeline.tlb
        predictor = self.pipeline.branch_unit.conditional
        return {
            "base_cpi": cfg.base_cpi,
            "rob_entries": cfg.rob_entries,
            "branch_resolve_latency": cfg.branch_resolve_latency,
            "stt_resolution_lag": cfg.stt_resolution_lag,
            "mispredict_penalty": cfg.mispredict_penalty,
            "l1i_line": h.l1i.line_bytes, "l1i_sets": h.l1i.num_sets,
            "l1i_ways": h.l1i.ways,
            "l1d_line": h.l1d.line_bytes, "l1d_sets": h.l1d.num_sets,
            "l1d_ways": h.l1d.ways,
            "l2_line": h.l2.line_bytes, "l2_sets": h.l2.num_sets,
            "l2_ways": h.l2.ways,
            "lat_l1": h.L1_LATENCY,
            "lat_l2": h.L1_LATENCY + h.L2_LATENCY,
            "lat_dram": h.L1_LATENCY + h.L2_LATENCY + h.DRAM_LATENCY,
            "stall_l2": h.L2_LATENCY,
            "stall_dram": h.L2_LATENCY + h.DRAM_LATENCY,
            "tlb_entries": tlb.entries, "tlb_penalty": tlb.miss_penalty,
            "bp_table": type(predictor).TABLE_SIZE,
            "bp_weak": type(predictor).WEAKLY_TAKEN,
        }

    def refresh(self, epoch: tuple) -> object:
        """Arm the cache for one run; returns the current epoch token.

        A changed epoch mints a new token: every compiled block still
        carrying the old token in its slot re-interprets once
        (invalidation + miss) before being re-armed.  A changed
        *pipeline config* invalidates the compiled code itself
        (constants are baked in).
        """
        # Insertion order of _consts() is fixed by its construction, so
        # the items tuple is a stable identity -- no sort needed on this
        # per-run path.
        cfg_key = tuple(self._consts().items())
        if cfg_key != self._cfg_key:
            self._cfg_key = cfg_key
            self._indexes.clear()
        if epoch != self._epoch:
            self._epoch = epoch
            self._token = object()
        return self._token

    # -- compilation ---------------------------------------------------

    def index_for(self, func: Function) -> dict[int, CompiledRegion]:
        """The region index for ``func``, rebuilt when its decode is
        stale.

        The fast path is identity + version + placement checks only --
        this runs on every CALL/ICALL/RET transition, so it must not
        rebuild (or even re-key) the decode tables.
        """
        entry = self._indexes.get(func.name)
        if entry is not None:
            body = func.body
            if entry[0] is body and entry[1] == getattr(body, "version", -1) \
                    and entry[2] == func.base_va:
                return entry[3]
        dec = func.decoded()
        index = self._compile_function(func, dec)
        # func.body read *after* decoded(): it may have re-wrapped a
        # plain-list body into a version-tracked BodyList.
        self._indexes[func.name] = (func.body, dec.version, dec.base_va,
                                    index)
        return index

    def _bind(self, source: str):
        digest = hashlib.sha256(source.encode()).hexdigest()
        fn = self._bound.get(digest)
        if fn is None:
            fn = _factory_for(source, digest)(*self._bindings)
            self._bound[digest] = fn
        return digest, fn

    def _compile_function(self, func: Function,
                          dec: DecodedBody) -> dict[int, CompiledRegion]:
        body = func.body
        spans = block_spans(body)
        if not spans:
            return {}
        cfg_key = self._cfg_key if self._cfg_key is not None \
            else tuple(self._consts().items())
        src_key = (id(func), dec.version, dec.base_va, cfg_key)
        cached = _SOURCE_CACHE.get(src_key)
        if cached is None:
            source = generate_source(body, dec, spans, self._consts())
            _SOURCE_CACHE[src_key] = (func, source)
        else:
            source = cached[1]
        digest, fn = self._bind(source)
        leaders = [start for start, _end, _term in spans]
        region = CompiledRegion(fn, leaders, digest)
        self.compiled_blocks += len(leaders)
        self.compiled_functions += 1
        return {leader: region for leader in leaders}
