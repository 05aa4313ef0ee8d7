"""Property-based tests (hypothesis) of the block JIT's invalidation and
counter-conservation contracts (see ``repro.cpu.blockcache``):

* a freshly compiled block's first execution re-interprets once (a
  *cold* miss: its token slot holds the ``COLD`` sentinel) before the
  slot is armed with the live epoch token;
* any speculation-environment change between two executions of the same
  block -- a policy swap, fault-point arming, or an ISV install/shrink --
  forces the next execution of that block to re-interpret (counted as an
  *epoch-invalidation* miss + invalidation) before it is re-armed;
* ``hits + misses == block executions`` under *every* interleaving of
  runs and invalidation events, i.e. invalidations convert hits into
  misses one-for-one and never lose or double-count an execution; and
* the per-reason miss split is conserved:
  ``sum(miss_reasons.values()) == misses`` with
  ``invalidations == miss_reasons["epoch-invalidation"]``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import AluOp, CodeLayout, Function, alu, br, kret, li, ret
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import ExecutionContext, Pipeline, SpeculationPolicy
from repro.defenses import PerspectivePolicy
from repro.obs import instrumented
from repro.reliability.faultplane import FaultPlane, FaultSpec


def _straightline() -> tuple[Pipeline, Function]:
    """One compiled block (leader 0), entered exactly once per run."""
    layout = CodeLayout(0x40000, stride_ops=32)
    func = layout.add(Function("f", [
        li("r1", 5), li("r2", 7),
        alu("r3", AluOp.ADD, "r1", "r2"),
        alu("r4", AluOp.MUL, "r3", "r2"),
        ret(),
    ]))
    pipeline = Pipeline(layout, MainMemory())
    pipeline.config.enable_block_cache = True
    return pipeline, func


def _loop() -> tuple[Pipeline, Function]:
    """A multi-block function with a loop back-edge (many arrivals/run)."""
    layout = CodeLayout(0x40000, stride_ops=64)
    func = layout.add(Function("f", [
        li("r1", 9), li("r2", 3),
        alu("r3", AluOp.ADD, "r2", "r2"),   # loop head (leader via br)
        alu("r4", AluOp.XOR, "r3", "r1"),
        alu("r1", AluOp.SUB, "r1", imm=1),
        br("r1", target=2),
        kret(),
    ]))
    pipeline = Pipeline(layout, MainMemory())
    pipeline.config.enable_block_cache = True
    return pipeline, func


def _counters(pipeline: Pipeline) -> tuple[int, int, int]:
    bc = pipeline._blockcache
    if bc is None:
        return (0, 0, 0)
    return (bc.hits, bc.misses, bc.invalidations)


#: Invalidation events a test step may fire between runs.  Each must
#: change one component of the block-arming epoch (policy generation /
#: fault-plane arming generation); ISV installs are exercised separately
#: against a full kernel below.
_EVENTS = st.sampled_from(["run", "policy", "fault"])


class TestEpochInvalidation:
    @given(st.lists(_EVENTS, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_any_bump_between_runs_forces_reinterpret(self, events):
        """Single-block program: every run is exactly one block
        execution, so the counter deltas are exactly predictable from
        the event interleaving."""
        pipeline, func = _straightline()
        expected_hits = expected_invalidations = 0
        expected_cold = 0
        # A bump only invalidates state that is already memoized: the
        # first-ever run compiles and then cold-misses (the fresh slot
        # holds the COLD sentinel), and any bumps before that first
        # execution have nothing to invalidate.
        armed = False
        bumped = False
        baseline = None
        for event in events:
            if event == "policy":
                pipeline.set_policy(SpeculationPolicy())
                bumped = True
            elif event == "fault":
                # Arming (entering and leaving a scope that sets
                # ``faults``) bumps the fault generation; memoized state
                # from before the arming must not replay after it.
                with instrumented(faults=FaultPlane(seed=1, specs=(
                        FaultSpec("trace-drop", probability=0.0),))):
                    pass
                bumped = True
            else:
                result = pipeline.run(func, ExecutionContext(1))
                if baseline is None:
                    baseline = result.regs["r4"]
                assert result.regs["r4"] == baseline
                if not armed:
                    expected_cold += 1
                elif bumped:
                    expected_invalidations += 1
                else:
                    expected_hits += 1
                armed = True
                bumped = False
        hits, misses, invalidations = _counters(pipeline)
        assert hits == expected_hits
        assert misses == expected_cold + expected_invalidations
        assert invalidations == expected_invalidations
        reasons = pipeline._blockcache.miss_reasons if misses else {}
        assert reasons.get("cold", 0) == expected_cold
        assert reasons.get("epoch-invalidation", 0) == expected_invalidations
        assert sum(reasons.values()) == misses, \
            "per-reason miss counts must sum to total misses"
        runs = sum(1 for e in events if e == "run")
        assert hits + misses == runs, \
            "hits + misses must equal block executions"

    @given(st.lists(_EVENTS, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_conservation_is_bump_pattern_independent(self, events):
        """Loop program: arrivals per run are deterministic, so
        ``hits + misses`` after k runs equals k times the per-run
        arrival count no matter where invalidations land -- an epoch
        bump converts hits to misses one-for-one, never changing the
        sum."""
        reference, ref_func = _loop()
        reference.run(ref_func, ExecutionContext(1))
        ref_hits, ref_misses, _ = _counters(reference)
        per_run = ref_hits + ref_misses
        assert per_run > 0

        pipeline, func = _loop()
        runs = 0
        for event in events:
            if event == "policy":
                pipeline.set_policy(SpeculationPolicy())
            elif event == "fault":
                with instrumented(faults=FaultPlane(seed=1, specs=(
                        FaultSpec("trace-drop", probability=0.0),))):
                    pass
            else:
                pipeline.run(func, ExecutionContext(1))
                runs += 1
        hits, misses, invalidations = _counters(pipeline)
        assert hits + misses == runs * per_run
        reasons = pipeline._blockcache.miss_reasons if misses else {}
        assert sum(reasons.values()) == misses
        # Every non-cold miss here is an epoch invalidation: the loop
        # program never stops on guards or budget.
        assert invalidations == misses - reasons.get("cold", 0)


class TestViewInstallInvalidation:
    """``install_isv`` / ``shrink_isv`` bump the framework view epoch,
    which is part of the block-arming key: memoized blocks must
    re-interpret on their next execution after any view change."""

    def _prepare(self, kernel, proc):
        framework = Perspective(kernel)
        policy = PerspectivePolicy(framework)
        kernel.pipeline.set_policy(policy)
        kernel.pipeline.config.enable_block_cache = True
        return framework

    def test_install_isv_between_runs_invalidates(self, kernel, proc):
        framework = self._prepare(kernel, proc)
        kernel.syscall(proc, "getpid")
        kernel.syscall(proc, "getpid")
        hits0, misses0, inval0 = _counters(kernel.pipeline)
        assert hits0 > 0, "warm syscall replay should produce hits"

        framework.install_isv(InstructionSpeculationView(
            proc.cgroup.cg_id, frozenset(["sys_read"]),
            kernel.image.layout, source="dynamic"))
        kernel.syscall(proc, "getpid")
        hits1, misses1, inval1 = _counters(kernel.pipeline)
        assert inval1 > inval0, \
            "install_isv must force re-interpretation of memoized blocks"
        assert misses1 > misses0

        # Re-armed: the same syscall replays from the cache again, with
        # no further invalidations.
        kernel.syscall(proc, "getpid")
        hits2, misses2, inval2 = _counters(kernel.pipeline)
        assert hits2 > hits1
        assert inval2 == inval1

    def test_shrink_isv_between_runs_invalidates(self, kernel, proc):
        framework = self._prepare(kernel, proc)
        ctx = proc.cgroup.cg_id
        framework.install_isv(InstructionSpeculationView(
            ctx, frozenset(["sys_read", "sys_write"]),
            kernel.image.layout, source="dynamic"))
        kernel.syscall(proc, "getpid")
        kernel.syscall(proc, "getpid")
        _, _, inval0 = _counters(kernel.pipeline)

        framework.shrink_isv(ctx, {"sys_write"})
        kernel.syscall(proc, "getpid")
        _, _, inval1 = _counters(kernel.pipeline)
        assert inval1 > inval0, \
            "shrink_isv must force re-interpretation of memoized blocks"
