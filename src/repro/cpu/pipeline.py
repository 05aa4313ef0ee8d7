"""Out-of-order core model with behavioural transient execution.

This is the reproduction's stand-in for the gem5 O3 core of the paper's
methodology (Table 7.1).  It is a scoreboard-style latency model rather than
a full cycle-accurate pipeline, but it is *behaviourally* faithful where it
matters for the paper:

* **Transient windows are real.**  When a branch (conditional or indirect)
  is mispredicted, the pipeline fetches and executes wrong-path micro-ops
  against a shadow register file.  Wrong-path loads perturb the shared cache
  hierarchy before the squash -- which is exactly the signal transient
  execution attacks recover via flush+reload.
* **Defense schemes gate speculative loads.**  Before a load executes under
  an unresolved prediction, the active :class:`SpeculationPolicy` decides
  whether it may proceed.  A blocked load stalls until its *visibility
  point* -- when no older instruction can squash it (Section 6.2,
  "Controlling Speculation") -- which is how the FENCE / DOM / STT /
  Perspective schemes all take effect, with very different frequencies.
* **Prediction state is shared.**  The conditional predictor, BTB and RSB
  persist across runs on the same core, so mistraining and poisoning by an
  attacker context carry over into the victim's kernel execution.

Timing is tracked with a register scoreboard + ROB occupancy ring, so
dependence chains through delayed loads compound -- this is what makes
kernel-spinning system calls (select/poll/epoll) catastrophically slow under
FENCE (228% in the paper) while straight-line syscalls barely notice.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field

from repro.cpu.blockcache import COLD, BlockCache, jit_eligible, run_epoch
from repro.cpu.branch import BranchUnit
from repro.cpu.cache import CacheHierarchy
from repro.cpu.isa import AluOp, CodeLayout, Function, MicroOp, Op, OP_SIZE
from repro.cpu.memsys import AddressSpace, MainMemory, PageFault, TLB
from repro.obs import events as ev
from repro.obs import reqtrace as rt
from repro.obs.instruments import INSTRUMENTS


@dataclass
class PipelineConfig:
    """Core parameters, following Table 7.1 of the paper."""

    fetch_width: int = 8
    rob_entries: int = 192
    #: Table 7.1's load/store queues.  Printed with the core parameters,
    #: but the model does not bind them: the 192-entry ROB fills before
    #: either queue could on every evaluated workload.
    load_queue_entries: int = 62
    store_queue_entries: int = 32
    #: Average issue cost per op.  The core is 8-issue, but kernel code
    #: sustains nowhere near that IPC; 0.25 models the typical ILP of
    #: syscall paths so fixed costs (trap, KPTI) stay in proportion.
    base_cpi: float = 0.25
    branch_resolve_latency: float = 7.0
    ret_resolve_latency: float = 6.0
    mispredict_penalty: float = 10.0
    btb_miss_penalty: float = 8.0
    retpoline_penalty: float = 60.0
    #: Extra resolution delay for tainted branches under STT-style
    #: implicit-channel protection (squash/wakeup broadcast round).
    stt_resolution_lag: float = 4.0
    max_transient_ops: int = 64
    max_committed_ops: int = 2_000_000  # runaway-program backstop
    #: Basic-block trace memoization (see :mod:`repro.cpu.blockcache`):
    #: straight-line micro-op runs are compiled to specialized replay
    #: functions and dispatched whenever their epoch token is current.
    #: Byte-exact against the interpreter (cycles included); off by
    #: default so existing snapshots and configs are unchanged.  Ignored
    #: when :func:`repro.cpu.blockcache.jit_eligible` refuses the
    #: pipeline's subsystem models (subclasses, the prefetcher).
    enable_block_cache: bool = False


@dataclass(slots=True)
class LoadQuery:
    """Everything a defense scheme may consult about a speculative load.

    Built positionally, once per load the policy checks."""

    inst_va: int
    load_va: int
    load_pa: int
    context_id: int
    domain: str
    transient: bool  # on a wrong path that will squash (ground truth)
    tainted: bool  # address depends on speculatively-loaded data
    l1_hit: bool


@dataclass(frozen=True)
class LoadDecision:
    """Outcome of a policy check for one speculative load.  Frozen, so
    policies hand out shared instances.

    ``invisible`` implements InvisiSpec-style speculation: the load
    executes (data returns, dependents proceed) but leaves *no trace* in
    the cache hierarchy; at the visibility point it replays to install the
    line, costing ``extra_latency`` on top of the uncached access.
    """

    allow: bool
    reason: str = ""
    extra_latency: float = 0.0
    invisible: bool = False

    ALLOW = None  # type: LoadDecision  # filled in below


LoadDecision.ALLOW = LoadDecision(True)


class SpeculationPolicy:
    """Base defense-scheme interface; the default is the UNSAFE baseline."""

    name = "unsafe"

    def check_load(self, query: LoadQuery) -> LoadDecision:
        """Called for every load issued while speculative."""
        return LoadDecision.ALLOW

    def kernel_entry_cost(self, context_id: int) -> float:
        """Extra cycles charged when entering the kernel (e.g. KPTI)."""
        return 0.0

    def kernel_exit_cost(self, context_id: int) -> float:
        return 0.0

    def retpoline_enabled(self) -> bool:
        """Whether indirect branches are compiled as retpolines."""
        return False

    def dom_lru_freeze(self) -> bool:
        """Delay-on-Miss: speculative L1 hits must not update LRU state."""
        return False

    def delays_tainted_branch_resolution(self) -> bool:
        """STT-style implicit-channel protection: a branch whose condition
        is tainted may not resolve (and squash/broadcast) until the
        tainting load reaches its visibility point."""
        return False

    def flush_branch_state_on_context_switch(self) -> bool:
        """IBPB-style barrier: indirect-branch predictor state is flushed
        when the kernel starts running on behalf of a different context,
        so one context's (mis)training cannot steer another's speculation.
        Table 4.1 rows 8-9 are cases where deployments *missed* this."""
        return False

    def cfi_enabled(self) -> bool:
        """SpecCFI-style speculative control-flow integrity: predicted
        indirect-branch targets that are not valid function entries are
        not followed speculatively (the front end stalls instead).

        Perspective assumes this layer (Section 5.1): without it, an
        attacker could hijack speculation into the *middle* of an
        ISV-trusted function, past its bounds checks."""
        return False

    def reset_stats(self) -> None:
        """Clear any per-run counters a scheme keeps."""


@dataclass
class ExecutionContext:
    """The execution context a program runs under.

    ``context_id`` identifies the owning cgroup/process for DSV checks;
    ``domain`` is the predictor-isolation domain ("user:<pid>" or "kernel").
    """

    context_id: int
    domain: str = "kernel"
    address_space: AddressSpace = field(default_factory=AddressSpace)
    initial_regs: dict[str, int] = field(default_factory=dict)


@dataclass
class ExecResult:
    """Aggregate outcome of one program execution."""

    cycles: float = 0.0
    committed_ops: int = 0
    transient_ops: int = 0
    loads: int = 0
    speculative_loads: int = 0
    fenced_loads: dict[str, int] = field(default_factory=dict)
    mispredictions: int = 0
    indirect_mispredictions: int = 0
    transient_loads_executed: int = 0
    transient_loads_blocked: int = 0
    #: Speculative control transfers suppressed by the CFI label check.
    cfi_suppressions: int = 0
    #: Cycles committed-path loads spent waiting at their visibility
    #: point because a policy blocked them (the *cost* behind the fence
    #: counts of Table 10.1).
    fence_stall_cycles: float = 0.0
    regs: dict[str, int] = field(default_factory=dict)

    @property
    def total_fenced(self) -> int:
        return sum(self.fenced_loads.values())

    @property
    def fences_per_kiloinstruction(self) -> float:
        if self.committed_ops == 0:
            return 0.0
        return 1000.0 * self.total_fenced / self.committed_ops

    def record_fence(self, reason: str) -> None:
        self.fenced_loads[reason] = self.fenced_loads.get(reason, 0) + 1

    def merge(self, other: "ExecResult") -> None:
        """Accumulate another run into this one (workload aggregation)."""
        self.cycles += other.cycles
        self.committed_ops += other.committed_ops
        self.transient_ops += other.transient_ops
        self.loads += other.loads
        self.speculative_loads += other.speculative_loads
        self.mispredictions += other.mispredictions
        self.indirect_mispredictions += other.indirect_mispredictions
        self.transient_loads_executed += other.transient_loads_executed
        self.transient_loads_blocked += other.transient_loads_blocked
        self.cfi_suppressions += other.cfi_suppressions
        self.fence_stall_cycles += other.fence_stall_cycles
        if other.fenced_loads:
            merged = self.fenced_loads
            for reason, count in other.fenced_loads.items():
                merged[reason] = merged.get(reason, 0) + count
            # Canonical key order: merged results must not depend on the
            # order the parts arrive in (pool workers gather out of order).
            self.fenced_loads = dict(sorted(merged.items()))


class _Unavailable:
    """Sentinel for transient register values that never materialized
    (their producing load was blocked by a defense)."""

    __repr__ = lambda self: "<unavailable>"  # noqa: E731


UNAVAILABLE = _Unavailable()


class Pipeline:
    """The core: executes micro-op programs under a speculation policy."""

    def __init__(self, layout: CodeLayout, memory: MainMemory,
                 hierarchy: CacheHierarchy | None = None,
                 branch_unit: BranchUnit | None = None,
                 config: PipelineConfig | None = None,
                 tlb: TLB | None = None) -> None:
        self.layout = layout
        self.memory = memory
        self.hierarchy = hierarchy or CacheHierarchy()
        self.branch_unit = branch_unit or BranchUnit()
        self.config = config or PipelineConfig()
        self.tlb = tlb or TLB()
        #: Monotonic count of ``set_policy`` calls -- part of the block
        #: JIT's epoch key, so a policy swap invalidates memoized blocks.
        self._policy_gen = 0
        #: Lazily-built :class:`repro.cpu.blockcache.BlockCache`.
        self._blockcache = None
        self.set_policy(SpeculationPolicy())
        #: Optional observer called with (function, context) whenever the
        #: committed path enters a function -- the kernel tracing subsystem
        #: (ftrace stand-in) hooks in here to build dynamic ISV profiles.
        self.trace_hook = None

    def set_policy(self, policy: SpeculationPolicy) -> None:
        self.policy = policy
        self._policy_gen += 1
        # A *passive* policy statically allows every speculative load with
        # no side effects (the UNSAFE baseline).  The load path then skips
        # building the LoadQuery entirely -- semantics are unchanged
        # because the base check_load reads nothing and always returns
        # ALLOW.  Detected structurally (check_load not overridden) or by
        # an explicit ``passive_allow`` opt-in; DOM-style LRU freezing
        # disqualifies a policy because the allow path would differ.
        cls = type(policy)
        self._passive_allow = (
            (cls.check_load is SpeculationPolicy.check_load
             or getattr(cls, "passive_allow", False))
            and cls.dom_lru_freeze is SpeculationPolicy.dom_lru_freeze)
        #: Whether an allowed speculative load updates L1D replacement
        #: state (DOM freezes it), asked once per policy.
        self._touch_lru = not policy.dom_lru_freeze()

    # ------------------------------------------------------------------
    # Main execution loop
    # ------------------------------------------------------------------

    def run(self, entry: str | Function, context: ExecutionContext,
            *, charge_kernel_entry: bool = False, start_index: int = 0,
            initial_call_stack: list[tuple[Function, int]] | None = None,
            ) -> ExecResult:
        """Execute a program to completion (KRET / final RET) and return
        timing plus speculation statistics.

        ``start_index`` and ``initial_call_stack`` support resuming in the
        middle of a call chain -- how the kernel model expresses a context
        switch's resume path, whose first RET consumes whatever the RSB
        holds (the Spectre-RSB consumption point).
        """
        cfg = self.config
        func = self.layout[entry] if isinstance(entry, str) else entry
        entry_name = func.name
        #: Front-end accounting for the observability plane (kept in
        #: locals -- ExecResult stays serialization-stable).
        fetch_lines = 0
        fetch_stall = 0.0
        result = ExecResult()
        regs: dict[str, int] = dict(context.initial_regs)
        reg_ready: dict[str, float] = {}
        taint_until: dict[str, float] = {}
        unresolved: list[float] = []  # resolve times of in-flight predictions
        rob: deque[float] = deque()
        call_stack: list[tuple[Function, int]] = \
            list(initial_call_stack) if initial_call_stack else []
        clock = 0.0
        if charge_kernel_entry:
            clock += self.policy.kernel_entry_cost(context.context_id)
        idx = start_index
        last_fetch_line = -1

        translate = context.address_space.translate
        body = func.body
        dec = func.decoded()
        trace = self.trace_hook
        if trace is not None:
            trace(func, context)

        # --- block JIT arming (see repro.cpu.blockcache) --------------
        #: Fetch accounting delegated to compiled blocks: [lines, stall].
        facc = [0, 0.0]
        blocks = None
        bc = None
        bc_token = None
        bc_hits = bc_misses = bc_invalidations = 0
        #: Lazily-allocated per-run miss attribution: (reason, fn) -> n.
        bc_attr = None
        fast_replay = False
        stt_delays = False
        dml, dmh = _direct_map_window(context.address_space)
        if cfg.enable_block_cache and jit_eligible(self):
            bc = self._blockcache
            if bc is None:
                bc = self._blockcache = BlockCache(self)
            bc_token = bc.refresh(run_epoch(self))
            # Generated loads under a prediction in flight call
            # _spec_load, except under a passive policy (UNSAFE) with no
            # journal, whose allow path they inline.
            fast_replay = self._passive_allow and INSTRUMENTS.journal is None
            stt_delays = self.policy.delays_tainted_branch_resolution()
            blocks = bc.index_for(func)
            if not blocks:
                bc_misses += 1
                bc_attr = {("uncompilable", func.name): 1}
        max_commit = cfg.max_committed_ops

        while True:
            reg = blocks.get(idx) if blocks is not None else None
            if reg is not None:
                # Enter the function's compiled region: it replays every
                # block it can (chaining through loops in-frame) and
                # reports why it stopped.  Whatever ``idx`` it returns is
                # executed by the interpreter below -- a stale or
                # over-budget block re-interprets exactly once, and an
                # uncompiled op is simply not ours.  ``hits + misses``
                # therefore equals the number of arrivals at compiled
                # leaders.
                clock, idx, last_fetch_line, replayed, stop = reg.fn(
                    regs, reg_ready, taint_until, unresolved, rob, clock,
                    last_fetch_line, result, translate, facc, func,
                    context, stt_delays, dml, dmh, idx, fast_replay,
                    max_commit, reg.tokens, bc_token)
                bc_hits += replayed
                if stop == 2:
                    # Token mismatch: either the block's first-ever
                    # arrival (slot still holds the COLD sentinel) or the
                    # speculation environment changed since it was
                    # memoized.  Re-interpret once below, then re-arm.
                    slot = reg.slot_of[idx]
                    if reg.tokens[slot] is COLD:
                        reason = "cold"
                    else:
                        reason = "epoch-invalidation"
                        bc_invalidations += 1
                    bc_misses += 1
                    reg.tokens[slot] = bc_token
                elif stop:  # STOP_BUDGET
                    bc_misses += 1
                    reason = "op-budget"
                else:
                    reason = None
                if reason is not None:
                    if bc_attr is None:
                        bc_attr = {}
                    key = (reason, func.name)
                    bc_attr[key] = bc_attr.get(key, 0) + 1
            if idx >= len(body):
                # Fall off the end of a function: implicit return.
                op = _IMPLICIT_RET
            else:
                op = body[idx]

            if result.committed_ops >= cfg.max_committed_ops:
                raise RuntimeError(
                    f"program exceeded {cfg.max_committed_ops} committed ops "
                    f"(in {func.name})")

            # --- front end: fetch bandwidth, I-cache, ROB occupancy -----
            clock += cfg.base_cpi
            fetch_line = dec.lines[idx]
            if fetch_line != last_fetch_line:
                last_fetch_line = fetch_line
                fetch_lines += 1
                access = self.hierarchy.access_inst(dec.vas[idx])
                if not access.l1_hit:
                    stall = access.latency - self.hierarchy.L1_LATENCY
                    clock += stall
                    fetch_stall += stall
            if len(rob) >= cfg.rob_entries:
                head = rob.popleft()
                if head > clock:
                    clock = head
            kind = op.op
            result.committed_ops += 1

            # --- per-op semantics ---------------------------------------
            if kind is Op.ALU:
                t = clock
                taint = 0.0
                for src in dec.reads[idx]:
                    ready = reg_ready.get(src)
                    if ready is not None and ready > t:
                        t = ready
                    stamp = taint_until.get(src)
                    if stamp is not None and stamp > taint:
                        taint = stamp
                regs[op.dst] = _alu_eval(op, regs)
                reg_ready[op.dst] = t + 1.0
                if taint > t:
                    taint_until[op.dst] = taint
                elif op.dst in taint_until:
                    del taint_until[op.dst]
                rob.append(t + 1.0)

            elif kind is Op.LOAD:
                clock = self._do_load(op, func, idx, regs, reg_ready,
                                      taint_until, unresolved, clock,
                                      context, translate, result, rob)

            elif kind is Op.STORE:
                t = clock
                for src in dec.reads[idx]:
                    ready = reg_ready.get(src)
                    if ready is not None and ready > t:
                        t = ready
                va = regs[op.src1] + op.imm
                try:
                    pa = translate(va)
                except PageFault:
                    pa = None
                if pa is not None:
                    clock += self.tlb.access(va) * 0.0  # stores off critical path
                    self.memory.store(pa, regs[op.src2])
                    self.hierarchy.l1d.fill(pa)
                rob.append(t + 1.0)

            elif kind is Op.BR:
                clock, idx, rob_entry = self._do_branch(
                    op, func, idx, regs, reg_ready, taint_until, unresolved,
                    clock, context, translate, result)
                # The branch occupies its ROB slot until it resolves, so
                # chains of late-resolving branches throttle commit.
                rob.append(rob_entry)
                continue  # idx already advanced

            elif kind is Op.JMP:
                idx = op.target
                rob.append(clock)
                continue

            elif kind is Op.CALL:
                callee = self.layout[op.callee]
                self.branch_unit.rsb.push(dec.vas[idx + 1])
                call_stack.append((func, idx + 1))
                func, body, idx = callee, callee.body, 0
                dec = callee.decoded()
                if bc is not None:
                    blocks = bc.index_for(func)
                    if not blocks:
                        bc_misses += 1
                        if bc_attr is None:
                            bc_attr = {}
                        key = ("uncompilable", func.name)
                        bc_attr[key] = bc_attr.get(key, 0) + 1
                last_fetch_line = -1
                rob.append(clock)
                if trace is not None:
                    trace(func, context)
                continue

            elif kind in (Op.ICALL, Op.IJMP):
                clock, new_func = self._do_indirect(
                    op, func, idx, regs, reg_ready, unresolved, clock,
                    context, translate, result)
                if kind is Op.ICALL:
                    self.branch_unit.rsb.push(dec.vas[idx + 1])
                    call_stack.append((func, idx + 1))
                func, body, idx = new_func, new_func.body, 0
                dec = new_func.decoded()
                if bc is not None:
                    blocks = bc.index_for(func)
                    if not blocks:
                        bc_misses += 1
                        if bc_attr is None:
                            bc_attr = {}
                        key = ("uncompilable", func.name)
                        bc_attr[key] = bc_attr.get(key, 0) + 1
                last_fetch_line = -1
                rob.append(clock)
                if trace is not None:
                    trace(func, context)
                continue

            elif kind is Op.RET:
                if not call_stack:
                    break  # return from the entry function: done
                clock = self._do_return(func, idx, regs, call_stack,
                                        unresolved, clock, context,
                                        translate, result)
                func, idx = call_stack.pop()
                body = func.body
                dec = func.decoded()
                if bc is not None:
                    blocks = bc.index_for(func)
                last_fetch_line = -1
                rob.append(clock)
                continue

            elif kind is Op.FENCE:
                t = clock
                for resolve in unresolved:
                    if resolve > t:
                        t = resolve
                for ready in reg_ready.values():
                    if ready > t:
                        t = ready
                clock = t
                unresolved.clear()
                taint_until.clear()
                rob.append(clock)

            elif kind is Op.FLUSH:
                va = regs[op.src1] + op.imm
                try:
                    pa = translate(va)
                except PageFault:
                    pa = None
                if pa is not None:
                    self.hierarchy.flush_data(pa)
                rob.append(clock)

            elif kind is Op.NOP:
                rob.append(clock)

            elif kind is Op.KRET:
                break

            idx += 1

        # Drain: the program is not done when its last op issues but when
        # everything in flight completes (the return to userspace cannot
        # retire past incomplete older instructions).
        for done in rob:
            if done > clock:
                clock = done
        for resolve in unresolved:
            if resolve > clock:
                clock = resolve
        if charge_kernel_entry:
            clock += self.policy.kernel_exit_cost(context.context_id)
        result.cycles = clock
        result.regs = regs
        if bc is not None:
            bc.hits += bc_hits
            bc.misses += bc_misses
            bc.invalidations += bc_invalidations
            if bc_attr is not None:
                reasons = bc.miss_reasons
                for (reason, _fn), count in bc_attr.items():
                    reasons[reason] = reasons.get(reason, 0) + count
        registry = INSTRUMENTS.registry
        if registry is not None:
            self._publish_run(registry, entry_name, result,
                              fetch_lines + facc[0], fetch_stall + facc[1],
                              bc, bc_hits, bc_misses, bc_invalidations,
                              bc_attr, context)
        if INSTRUMENTS.recorder is not None:
            bc_miss: dict[str, int] = {}
            if bc_attr is not None:
                for (reason, _fn), count in bc_attr.items():
                    bc_miss[reason] = bc_miss.get(reason, 0) + count
            rt.step("pipeline", entry_name, result.cycles,
                    fetch_stall=fetch_stall + facc[1],
                    fence_stall=result.fence_stall_cycles,
                    bc_hits=bc_hits, bc_miss=bc_miss)
        # Keep journal cycle stamps monotonic across runs: the next run's
        # events land after everything this run emitted.
        ev.advance(result.cycles)
        return result

    def _publish_run(self, registry, entry_name: str, result: ExecResult,
                     fetch_lines: int, fetch_stall: float,
                     bc=None, bc_hits: int = 0, bc_misses: int = 0,
                     bc_invalidations: int = 0, bc_attr=None,
                     context=None) -> None:
        """Publish one run's speculation statistics to the obs plane.

        Deferred to run completion so the hot loop pays nothing beyond
        two local accumulations; publishing only *reads* the result, so
        enabling observability cannot change any measured number.
        """
        registry.add("pipeline.runs")
        registry.add("pipeline.fetch.lines", fetch_lines)
        registry.add("pipeline.fetch.stall_cycles", fetch_stall)
        registry.add("pipeline.execute.loads", result.loads)
        registry.add("pipeline.execute.speculative_loads",
                     result.speculative_loads)
        registry.add("pipeline.commit.ops", result.committed_ops)
        registry.add("pipeline.transient.ops", result.transient_ops)
        registry.add("pipeline.transient.loads_executed",
                     result.transient_loads_executed)
        registry.add("pipeline.transient.loads_blocked",
                     result.transient_loads_blocked)
        registry.add("pipeline.mispredict.conditional",
                     result.mispredictions)
        registry.add("pipeline.mispredict.indirect",
                     result.indirect_mispredictions)
        registry.add("pipeline.cfi_suppressions", result.cfi_suppressions)
        registry.add("pipeline.fence.stall_cycles",
                     result.fence_stall_cycles)
        if bc is not None:
            # Block JIT counters: published only when the cache is armed,
            # so cache-off snapshots stay byte-identical.
            registry.add("pipeline.blockcache.hits", bc_hits)
            registry.add("pipeline.blockcache.misses", bc_misses)
            registry.add("pipeline.blockcache.invalidations",
                         bc_invalidations)
            registry.gauge("pipeline.blockcache.compiled_blocks",
                           bc.compiled_blocks)
            if bc_attr:
                # Miss attribution: per-reason totals plus tenant x
                # scheme x kernel-function counters for the dashboard.
                # Conservation: the per-reason counters sum to
                # pipeline.blockcache.misses.
                ctx = context.context_id if context is not None else 0
                # Registry-derived label, not the raw policy name: names
                # like "spot-kpti+retpoline" contain metric-hostile
                # characters, and the registry collision-checks labels so
                # two schemes can never silently share attr counters.
                from repro.defenses.registry import policy_metric_label
                scheme = policy_metric_label(self.policy)
                for (reason, fn), count in bc_attr.items():
                    registry.add(f"pipeline.blockcache.miss.{reason}",
                                 count)
                    registry.add(
                        "pipeline.blockcache.attr."
                        f"c{ctx}.{scheme}.{fn}.{reason}", count)
        for reason, count in result.fenced_loads.items():
            registry.add(f"pipeline.fence.reason.{reason}", count)
        total_fenced = result.total_fenced
        if total_fenced:
            # Per-entry-function fence attribution: the counter the
            # differential profiler joins against the span tree to build
            # the paper's Figure 9-style per-function breakdown.
            registry.add(f"pipeline.fence.by_fn.{entry_name}", total_fenced)
        registry.observe("pipeline.run_cycles", result.cycles)
        # Span attribution: the kernel-function node keeps the cycles not
        # explained by a stall phase.  In this scoreboard model stalls are
        # per-instruction waits that can overlap compute (and each other)
        # on the critical path, so the raw components may exceed the wall
        # cycles; the phase shares are scaled to the overlap-free stall
        # time, keeping the subtree sum exactly equal to the run's cycles
        # (the exact per-component figures live in the pipeline.*
        # counters).
        fence_stall = result.fence_stall_cycles
        stall = fence_stall + fetch_stall
        covered = min(stall, result.cycles)
        scale = covered / stall if stall > 0.0 else 0.0
        with registry.span(f"fn/{entry_name}"):
            registry.tick(result.cycles - covered)
            with registry.span("phase/fetch_stall"):
                registry.tick(fetch_stall * scale)
            with registry.span("phase/fence_stall"):
                registry.tick(fence_stall * scale)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _spec_until(self, unresolved: list[float], t: float) -> float:
        """Latest in-flight resolution time after ``t`` (0.0 if none),
        dropping the entries resolved by ``t``.

        ``unresolved`` stays in ascending order (every prediction goes in
        with ``bisect.insort``), so the latest entry is the last one and
        the resolved entries are a prefix, cut in one slice; the compiled
        blocks inline the same rule (``blockcache._emit_spec_prune``).
        Every reader takes a max or keeps the entries after ``t``, so
        the order changes no answer.
        """
        if not unresolved:
            return 0.0
        latest = unresolved[-1]
        if latest <= t:
            unresolved.clear()
            return 0.0
        if unresolved[0] <= t:
            del unresolved[:bisect_right(unresolved, t)]
        return latest

    def _do_load(self, op: MicroOp, func: Function, idx: int,
                 regs: dict, reg_ready: dict, taint_until: dict,
                 unresolved: list[float], clock: float,
                 context: ExecutionContext, translate, result: ExecResult,
                 rob: deque) -> float:
        t = clock
        ready = reg_ready.get(op.src1)
        if ready is not None and ready > t:
            t = ready
        va = regs[op.src1] + op.imm
        try:
            pa = translate(va)
        except PageFault:
            # Architectural fault on the committed path: model as a
            # fixed-cost fault that reads zero (the kernel image generator
            # never emits faulting committed loads; this is a guard).
            regs[op.dst] = 0
            reg_ready[op.dst] = t + 50.0
            rob.append(t + 50.0)
            result.loads += 1
            return clock

        t += self.tlb.access(va)
        spec_until = self._spec_until(unresolved, t)
        result.loads += 1
        if spec_until > 0.0:
            regs[op.dst], reg_ready[op.dst], done = self._spec_load(
                func, idx, op.dst, va, pa, t, spec_until,
                taint_until.get(op.src1, 0.0), context, result, taint_until)
            rob.append(done)
            return clock
        access = self.hierarchy.access_data(pa)
        regs[op.dst] = self.memory.load(pa)
        done = t + access.latency
        reg_ready[op.dst] = done
        if op.dst in taint_until:
            del taint_until[op.dst]
        rob.append(done)
        return clock

    def _spec_load(self, func: Function, idx: int, dst: str, va: int,
                   pa: int, t: float, spec_until: float, src_taint: float,
                   context: ExecutionContext, result: ExecResult,
                   taint_until: dict) -> tuple[int, float, float]:
        """A committed-path load issued under an unresolved prediction.

        The one speculative-load path: the interpreter and compiled blocks
        (:mod:`repro.cpu.blockcache`) both call it once the load has
        translated, paid its TLB charge (``t``) and found predictions in
        flight until ``spec_until``.  ``src_taint`` is the address
        register's taint stamp.  Returns ``(value, ready, rob_entry)``
        and leaves ``dst``'s taint stamped, or cleared when the policy
        held the load to its visibility point.
        """
        result.speculative_loads += 1
        hierarchy = self.hierarchy
        if self._passive_allow and INSTRUMENTS.journal is None:
            # UNSAFE fast path: the decision is statically ALLOW with
            # no latency, no LRU freeze, and no event emission, so the
            # query (and the stats-free L1 probe feeding it) can be
            # skipped without changing any measured number.
            done = t + hierarchy.access_data(pa).latency
            taint_until[dst] = max(spec_until, src_taint)
            return self.memory.load(pa), done, done
        policy = self.policy
        inst_va = func.va_of(idx)
        journal = INSTRUMENTS.journal
        if journal is not None:
            ev.set_site(t, context.context_id, inst_va, func.name,
                        policy.name)
        decision = policy.check_load(LoadQuery(
            inst_va, va, pa, context.context_id, context.domain, False,
            src_taint > t, hierarchy.is_l1d_hit(pa)))
        if not decision.allow:
            # Stall to the visibility point: no older instruction can
            # squash the load once all in-flight predictions resolve.
            # From there it is an ordinary, untainted access.
            reason = decision.reason or policy.name
            result.record_fence(reason)
            if journal is not None:
                journal.emit(
                    "fence", cycle=t, context=context.context_id,
                    pc=inst_va, kernel_fn=func.name, reason=reason,
                    scheme=policy.name)
            stalled_to = max(t, spec_until) + decision.extra_latency
            result.fence_stall_cycles += stalled_to - t
            done = stalled_to + hierarchy.access_data(pa).latency
            if dst in taint_until:
                del taint_until[dst]
            return self.memory.load(pa), done, done
        t += decision.extra_latency
        # STT-style taint: data stays tainted until the youngest
        # prediction the load sits under resolves.
        taint_until[dst] = max(spec_until, src_taint)
        if decision.invisible:
            # InvisiSpec: read around the caches into a speculative
            # buffer; the line installs only at the replay (the committed
            # path always reaches its VP, so the fill happens -- late).
            latency = hierarchy.probe_latency(pa) + decision.extra_latency
            hierarchy.access_data(pa)  # the VP-time replay/install
            return (self.memory.load(pa), t + latency,
                    max(t, spec_until) + latency)
        done = t + hierarchy.access_data(pa, touch_lru=self._touch_lru).latency
        return self.memory.load(pa), done, done

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _do_branch(self, op: MicroOp, func: Function, idx: int,
                   regs: dict, reg_ready: dict, taint_until: dict,
                   unresolved: list[float], clock: float,
                   context: ExecutionContext, translate,
                   result: ExecResult) -> tuple[float, int, bool]:
        pc = func.va_of(idx)
        predictor = self.branch_unit.conditional
        predicted_taken = predictor.predict(pc)
        actual_taken = regs[op.src1] != 0
        t = clock
        ready = reg_ready.get(op.src1)
        if ready is not None and ready > t:
            t = ready
        resolve = t + self.config.branch_resolve_latency
        if self.policy.delays_tainted_branch_resolution():
            # The tainting load reaches its VP only once older predictions
            # resolve; the squash/wakeup broadcast then costs another
            # resolution round -- the serialization that gives STT its
            # residual cost on data-dependent kernel spin loops.
            taint = taint_until.get(op.src1, 0.0)
            if taint > 0.0:
                delayed = taint + self.config.stt_resolution_lag
                if delayed > resolve:
                    resolve = delayed
        predictor.update(pc, actual_taken)
        if predicted_taken == actual_taken:
            insort(unresolved, resolve)
        else:
            result.mispredictions += 1
            wrong_idx = op.target if predicted_taken else idx + 1
            self._run_transient(func, wrong_idx, regs, clock, resolve,
                                context, translate, result,
                                taint_until=taint_until)
            clock = resolve + self.config.mispredict_penalty
        next_idx = op.target if actual_taken else idx + 1
        return clock, next_idx, resolve

    def _do_indirect(self, op: MicroOp, func: Function, idx: int,
                     regs: dict, reg_ready: dict, unresolved: list[float],
                     clock: float, context: ExecutionContext, translate,
                     result: ExecResult) -> tuple[float, Function]:
        pc = func.va_of(idx)
        actual_va = regs[op.src1]
        resolved = self.layout.resolve_va(actual_va)
        if resolved is None:
            raise RuntimeError(
                f"indirect branch in {func.name} to unmapped VA {actual_va:#x}")
        target_func, _ = resolved

        t = clock
        ready = reg_ready.get(op.src1)
        if ready is not None and ready > t:
            t = ready

        if self.policy.retpoline_enabled():
            # Retpoline: the indirect branch never speculates; pays a fixed
            # construct cost instead (capture loop + pause).
            clock = t + self.config.retpoline_penalty
            return clock, target_func

        predicted_va = self.branch_unit.btb.predict(pc, context.domain)
        resolve = t + self.config.branch_resolve_latency
        if predicted_va is not None and self.policy.cfi_enabled() \
                and not self._is_valid_cfi_target(predicted_va):
            # SpecCFI: the predicted target fails the label check; the
            # front end stalls until the branch resolves architecturally.
            result.cfi_suppressions += 1
            predicted_va = None
            clock = resolve
        if predicted_va is None:
            clock = max(clock, t + self.config.btb_miss_penalty)
        elif predicted_va == actual_va:
            insort(unresolved, resolve)
        else:
            result.indirect_mispredictions += 1
            wrong = self.layout.resolve_va(predicted_va)
            if wrong is not None:
                wrong_func, wrong_idx = wrong
                self._run_transient(wrong_func, wrong_idx, regs, clock,
                                    resolve, context, translate, result)
            clock = resolve + self.config.mispredict_penalty
        self.branch_unit.btb.install(pc, actual_va, context.domain)
        return clock, target_func

    def _is_valid_cfi_target(self, va: int) -> bool:
        """CFI label check: indirect control flow may only land on a
        function entry point."""
        resolved = self.layout.resolve_va(va)
        return resolved is not None and resolved[1] == 0

    def _do_return(self, func: Function, idx: int, regs: dict,
                   call_stack: list[tuple[Function, int]],
                   unresolved: list[float], clock: float,
                   context: ExecutionContext, translate,
                   result: ExecResult) -> float:
        actual_func, actual_idx = call_stack[-1]
        actual_va = actual_func.va_of(actual_idx)
        predicted_va = self.branch_unit.rsb.pop_predict()
        if predicted_va is None and \
                self.branch_unit.rsb.config.btb_fallback_on_underflow:
            # Retbleed-vulnerable behaviour: RSB underflow falls back to the
            # BTB, which an attacker can poison.
            predicted_va = self.branch_unit.btb.predict(
                func.va_of(idx), context.domain)
        if predicted_va is not None and predicted_va != actual_va \
                and self.policy.cfi_enabled() \
                and not self._is_valid_cfi_target(predicted_va):
            result.cfi_suppressions += 1
            predicted_va = None
        resolve = clock + self.config.ret_resolve_latency
        if predicted_va is None:
            clock += self.config.btb_miss_penalty
        elif predicted_va == actual_va:
            insort(unresolved, resolve)
        else:
            result.indirect_mispredictions += 1
            wrong = self.layout.resolve_va(predicted_va)
            if wrong is not None:
                wrong_func, wrong_idx = wrong
                # The hijacked path inherits live register values -- the
                # speculative type confusion of Figure 4.2: a pointer left
                # in a register is reinterpreted by the gadget.
                self._run_transient(wrong_func, wrong_idx, regs, clock,
                                    resolve, context, translate, result)
            clock = resolve + self.config.mispredict_penalty
        return clock

    # ------------------------------------------------------------------
    # Transient (wrong-path) execution
    # ------------------------------------------------------------------

    def _run_transient(self, func: Function, idx: int, regs: dict,
                       clock: float, resolve: float,
                       context: ExecutionContext, translate,
                       result: ExecResult,
                       taint_until: dict | None = None) -> None:
        """Execute wrong-path micro-ops until the squash.

        Register state is a shadow copy (`inherit_regs` defaults to the
        committed-path registers -- that inheritance is what makes the
        speculative type confusion of passive attacks work: a register
        holding a pointer is reinterpreted by the hijacked target).
        Architectural memory and register state are untouched; the *only*
        lasting effects are cache fills by allowed loads, which is the
        covert-channel transmission the attacker later measures.

        Source registers come from the decode tables, and load addresses
        in the direct map translate inline through the window :meth:`run`
        and the compiled blocks use; ``transient_ops`` is charged once.
        """
        budget = min(
            self.config.max_transient_ops,
            max(0, int((resolve - clock) * self.config.fetch_width)))
        if budget <= 0:
            return
        shadow: dict[str, object] = dict(regs)
        # STT-style taint over the wrong path: registers written by
        # speculative loads are tainted; a load is a blockable transmitter
        # only when its *address* is tainted.  Taint inherited from the
        # committed path carries over.
        shadow_taint: set[str] = set()
        if taint_until:
            shadow_taint.update(
                reg for reg, until in taint_until.items() if until > clock)
        shadow_stack: list[tuple[Function, int]] = []
        dml, dmh = _direct_map_window(context.address_space)
        hierarchy = self.hierarchy
        load_data = self.memory.load
        policy = self.policy
        journal = INSTRUMENTS.journal
        passive = self._passive_allow and journal is None
        # decoded() may re-wrap a plain-list body, so body is read after.
        reads = func.decoded().reads
        body = func.body
        executed = 0
        while executed < budget:
            if idx >= len(body):
                if not shadow_stack:
                    break
                func, idx = shadow_stack.pop()
                reads = func.decoded().reads
                body = func.body
                continue
            op = body[idx]
            executed += 1
            kind = op.op
            if kind is _ALU:
                shadow[op.dst] = _alu_eval_shadow(op, shadow)
                if shadow_taint.isdisjoint(reads[idx]):
                    shadow_taint.discard(op.dst)
                else:
                    shadow_taint.add(op.dst)
            elif kind is _LOAD:
                base = shadow.get(op.src1, UNAVAILABLE)
                if base is UNAVAILABLE:
                    shadow[op.dst] = UNAVAILABLE
                    idx += 1
                    continue
                va = base + op.imm
                if dml <= va < dmh:
                    pa = va - dml
                else:
                    try:
                        pa = translate(va)
                    except PageFault:
                        # Speculative faults are suppressed; the load
                        # squashes without architectural effect and
                        # returns nothing.
                        shadow[op.dst] = UNAVAILABLE
                        idx += 1
                        continue
                if passive:
                    # Same UNSAFE fast path as the committed-side load.
                    hierarchy.access_data(pa)
                    shadow[op.dst] = load_data(pa)
                    shadow_taint.add(op.dst)
                    result.transient_loads_executed += 1
                    idx += 1
                    continue
                inst_va = func.va_of(idx)
                if journal is not None:
                    ev.set_site(clock, context.context_id, inst_va,
                                func.name, policy.name)
                decision = policy.check_load(LoadQuery(
                    inst_va, va, pa, context.context_id, context.domain,
                    True, op.src1 in shadow_taint,
                    hierarchy.is_l1d_hit(pa)))
                if decision.allow:
                    if not decision.invisible:
                        # The cache fill IS the covert-channel transmit;
                        # invisible (InvisiSpec) loads read into a
                        # speculative buffer that squashes with the path,
                        # leaving nothing for the receiver to measure.
                        hierarchy.access_data(pa, touch_lru=self._touch_lru)
                    shadow[op.dst] = load_data(pa)
                    shadow_taint.add(op.dst)
                    result.transient_loads_executed += 1
                else:
                    result.record_fence(decision.reason or policy.name)
                    result.transient_loads_blocked += 1
                    shadow[op.dst] = UNAVAILABLE
                    if journal is not None:
                        # A blocked *wrong-path* load is a stopped leak
                        # attempt: the covert-channel transmit that never
                        # happened.
                        journal.emit(
                            "blocked-leak", cycle=clock,
                            context=context.context_id,
                            pc=inst_va, kernel_fn=func.name,
                            reason=decision.reason or policy.name,
                            scheme=policy.name)
            elif kind is _STORE:
                pass  # transient stores never become visible
            elif kind is _BR:
                cond = shadow.get(op.src1, UNAVAILABLE)
                if cond is UNAVAILABLE:
                    break  # control flow depends on an unavailable value
                if cond != 0:
                    idx = op.target
                    continue
            elif kind is _JMP:
                idx = op.target
                continue
            elif kind is _CALL:
                callee = self.layout.get(op.callee)
                if callee is None:
                    break
                shadow_stack.append((func, idx + 1))
                func, idx = callee, 0
                reads = func.decoded().reads
                body = func.body
                continue
            elif kind is _ICALL or kind is _IJMP:
                target_va = shadow.get(op.src1, UNAVAILABLE)
                if target_va is UNAVAILABLE:
                    break
                resolved = self.layout.resolve_va(target_va)
                if resolved is None:
                    break
                new_func, new_idx = resolved
                if kind is _ICALL:
                    shadow_stack.append((func, idx + 1))
                func, idx = new_func, new_idx
                reads = func.decoded().reads
                body = func.body
                continue
            elif kind is _RET:
                if not shadow_stack:
                    break
                func, idx = shadow_stack.pop()
                reads = func.decoded().reads
                body = func.body
                continue
            elif kind is _FENCE:
                break  # lfence stops speculation dead
            elif kind is _FLUSH:
                base = shadow.get(op.src1, UNAVAILABLE)
                if base is not UNAVAILABLE:
                    try:
                        hierarchy.flush_data(translate(base + op.imm))
                    except PageFault:
                        pass
            elif kind is _KRET:
                break
            idx += 1
        result.transient_ops += executed


def _direct_map_window(address_space: AddressSpace) -> tuple[int, int]:
    """``(lo, hi)``: the side-effect-free direct-map window where
    ``translate(va) == va - lo``, read off the *exact* address-space type
    so a subclass overriding ``translate`` never inherits it.  The empty
    ``(1, 0)`` window makes the inline test statically false."""
    published = type(address_space).__dict__
    return (published.get("DIRECT_MAP_LO", 1),
            published.get("DIRECT_MAP_HI", 0))


#: Op kinds as module globals, for the wrong-path executor's dispatch.
_ALU, _LOAD, _STORE, _BR, _JMP = Op.ALU, Op.LOAD, Op.STORE, Op.BR, Op.JMP
_CALL, _ICALL, _IJMP, _RET = Op.CALL, Op.ICALL, Op.IJMP, Op.RET
_FENCE, _FLUSH, _KRET = Op.FENCE, Op.FLUSH, Op.KRET

_IMPLICIT_RET = MicroOp(Op.RET)


def _alu_eval(op: MicroOp, regs: dict[str, int]) -> int:
    """Evaluate an ALU op against architectural registers."""
    kind = op.alu_op
    if kind is AluOp.LI:
        return op.imm
    a = regs.get(op.src1, 0)
    if kind is AluOp.MOV:
        return a
    b = regs.get(op.src2, 0) if op.src2 is not None else op.imm
    if kind is AluOp.ADD:
        return a + b
    if kind is AluOp.SUB:
        return a - b
    if kind is AluOp.AND:
        return a & b
    if kind is AluOp.OR:
        return a | b
    if kind is AluOp.XOR:
        return a ^ b
    if kind is AluOp.SHL:
        return a << (b & 63)
    if kind is AluOp.SHR:
        return a >> (b & 63)
    if kind is AluOp.MUL:
        return a * b
    if kind is AluOp.CMPLT:
        return 1 if a < b else 0
    if kind is AluOp.CMPLTU:
        # Unsigned 64-bit compare: the semantics real bounds checks use,
        # where a negative index wraps to a huge value and fails.
        return 1 if (a & _U64) < (b & _U64) else 0
    if kind is AluOp.CMPEQ:
        return 1 if a == b else 0
    raise ValueError(f"unknown ALU op: {kind}")


_U64 = (1 << 64) - 1


def _alu_eval_shadow(op: MicroOp, shadow: dict) -> object:
    """ALU evaluation over shadow registers, propagating unavailability."""
    kind = op.alu_op
    if kind is AluOp.LI:
        return op.imm
    a = shadow.get(op.src1, 0)
    if a is UNAVAILABLE:
        return UNAVAILABLE
    if kind is AluOp.MOV:
        return a
    if op.src2 is not None:
        b = shadow.get(op.src2, 0)
        if b is UNAVAILABLE:
            return UNAVAILABLE
    else:
        b = op.imm
    if kind is AluOp.ADD:
        return a + b
    if kind is AluOp.SUB:
        return a - b
    if kind is AluOp.AND:
        return a & b
    if kind is AluOp.OR:
        return a | b
    if kind is AluOp.XOR:
        return a ^ b
    if kind is AluOp.SHL:
        return a << (b & 63)
    if kind is AluOp.SHR:
        return a >> (b & 63)
    if kind is AluOp.MUL:
        return a * b
    if kind is AluOp.CMPLT:
        return 1 if a < b else 0
    if kind is AluOp.CMPLTU:
        return 1 if (a & _U64) < (b & _U64) else 0
    if kind is AluOp.CMPEQ:
        return 1 if a == b else 0
    raise ValueError(f"unknown ALU op: {kind}")
