"""Pins on the in-flight prediction list a committed-path load consults.

A load is speculative while a prediction older than it is unresolved
(Section 6.2, "Controlling Speculation"); the interpreter and the
compiled blocks keep those predictions' resolve times in one list per
run and drop the resolved ones as loads issue.  Two pins hold that
bookkeeping to its observable behaviour:

* a Hypothesis differential test drives ``Pipeline._spec_until`` over a
  list kept sorted with ``bisect.insort`` and a reference (a filter and
  a max over an append-only list) through the same inserts, queries at
  non-monotone times and fences, and requires the same answer and the
  same multiset of entries after every step;
* a hand-built program in which a late-ready load drops predictions
  that a later, early-ready load would otherwise still sit under: its
  cycles, speculative loads, fences and fence stall are pinned under
  ``fence`` and ``perspective``, with the block JIT off and on.  The
  JIT off == on corpus cannot see a fault both paths share; this pin
  can.
"""

from __future__ import annotations

import bisect
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import (
    AluOp, CodeLayout, Function, alu, br, flush, kret, load,
)
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import ExecutionContext, Pipeline
from repro.defenses.registry import arm, build_policy
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel


def reference_spec_until(unresolved: list[float], t: float) -> float:
    """The latest resolve time after ``t`` (0.0 if none), keeping only
    the entries after ``t``, in arrival order."""
    latest = 0.0
    keep = []
    for resolve in unresolved:
        if resolve > t:
            keep.append(resolve)
            if resolve > latest:
                latest = resolve
    unresolved[:] = keep
    return latest


#: Resolve and query times on the model's 0.25-cycle grid, small enough
#: that ties between entries, and between an entry and a query, are
#: common.
_times = st.integers(1, 40).map(lambda n: n * 0.25)
_steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), _times),
    st.tuples(st.just("query"), st.integers(0, 44).map(lambda n: n * 0.25)),
    st.tuples(st.just("fence")),
), max_size=60)


def check_in_flight_list(steps) -> None:
    pipeline = Pipeline(CodeLayout(0x40_0000), MainMemory())
    in_flight: list[float] = []
    reference: list[float] = []
    for step in steps:
        if step[0] == "insert":
            bisect.insort(in_flight, step[1])
            reference.append(step[1])
        elif step[0] == "query":
            assert pipeline._spec_until(in_flight, step[1]) \
                == reference_spec_until(reference, step[1]), step
        else:
            assert max(in_flight, default=0.0) \
                == max(reference, default=0.0)
            in_flight.clear()
            reference.clear()
        assert sorted(reference) == in_flight, step


class TestInFlightList:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(steps=_steps)
    def test_sorted_list_matches_reference(self, steps):
        check_in_flight_list(steps)

    @pytest.mark.slow
    @settings(max_examples=5000, deadline=None)
    @given(steps=_steps)
    def test_sorted_list_matches_reference_large(self, steps):
        check_in_flight_list(steps)


# ----------------------------------------------------------------------
# The prune, end to end
# ----------------------------------------------------------------------


def _program() -> list:
    """``r10`` is a base the running context owns, ``r11`` one it does
    not (outside its DSV under Perspective); ``r9`` is 1.

    Phase 1: two correctly predicted branches resolve early, a load
    whose address waits on a flushed line drops both, and the early-ready
    load after it is not speculative.  Phase 2: a branch whose condition
    waits on a flushed line resolves late, a load that waits on a longer
    chain drops it, a branch that resolves early follows, and the
    early-ready load after it stalls only to that last branch.
    """
    ops = [flush("r10", 0), flush("r10", 0x400), flush("r10", 0x800)]
    # Phase 1.
    ops += [
        load("r2", "r10", 0),
        alu("r3", AluOp.AND, "r2", imm=0),
        alu("r4", AluOp.ADD, "r10", "r3"),
    ]
    ops.append(br("r9", len(ops) + 1))
    ops.append(br("r9", len(ops) + 1))
    ops += [load("r5", "r4", 64), load("r6", "r11", 0)]
    # Phase 2.
    ops += [
        load("r2", "r10", 0x400),
        load("r12", "r10", 0x800),
        alu("r3", AluOp.AND, "r2", imm=0),
        alu("r7", AluOp.OR, "r3", imm=1),
    ]
    ops.append(br("r7", len(ops) + 1))
    ops.append(alu("r13", AluOp.AND, "r12", imm=0))
    ops += [alu("r13", AluOp.ADD, "r13", imm=0) for _ in range(10)]
    ops.append(alu("r14", AluOp.ADD, "r10", "r13"))
    ops.append(load("r5", "r14", 0xC00))
    ops.append(br("r9", len(ops) + 1))
    ops += [load("r6", "r11", 64), kret()]
    return ops


def _deploy(scheme: str, jit: bool):
    """A fresh core running the program under ``scheme``; returns
    ``(pipeline, entry, context)``."""
    if scheme == "fence":
        pipeline = Pipeline(CodeLayout(0x40_0000, stride_ops=512),
                            MainMemory())
        pipeline.set_policy(build_policy(scheme))
        entry = pipeline.layout.add(Function("prune_pin", _program()))
        bases = {"r10": 0x10_4000, "r11": 0x20_8000}
        context = ExecutionContext(1, initial_regs={**bases, "r9": 1})
    else:
        k = MiniKernel(image=shared_image())
        own, other = k.create_process("own"), k.create_process("other")
        entry = k.layout.add(Function("prune_pin", []))
        entry.body.extend(_program())
        ctx_id = own.cgroup.cg_id
        arm(k, scheme, views=(InstructionSpeculationView(
            ctx_id, frozenset(("prune_pin",)), k.layout,
            source="dynamic"),))
        pipeline = k.pipeline
        context = ExecutionContext(
            ctx_id, address_space=own.aspace,
            initial_regs={"r10": own.heap_va, "r11": other.heap_va,
                          "r9": 1})
    pipeline.config.enable_block_cache = jit
    return pipeline, entry, context


_PINNED_FIELDS = ("cycles", "speculative_loads", "fenced_loads",
                  "fence_stall_cycles")

#: Per run, three runs on one core: the first interprets every block
#: (cold), the other two replay them when the block JIT is on.  A load
#: path that keeps the resolved predictions reads, under ``fence``, 3-4
#: fenced loads and 24.75-139.25 stall cycles per run.
PRUNE_PIN = {
    "fence": [
        (351.0, 1, {"fence": 1}, 6.75),
        (127.0, 1, {"fence": 1}, 6.75),
        (127.0, 1, {"fence": 1}, 6.75),
    ],
    "perspective": [
        (360.25, 1, {"isv": 1}, 26.75),
        (127.0, 1, {"dsv": 1}, 36.75),
        (127.0, 1, {"dsv": 1}, 6.75),
    ],
}


class TestPrunePin:
    @pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
    @pytest.mark.parametrize("scheme", sorted(PRUNE_PIN))
    def test_late_load_prunes_for_later_loads(self, scheme, jit):
        pipeline, entry, context = _deploy(scheme, jit)
        runs = []
        for _ in range(3):
            result = dataclasses.asdict(pipeline.run(entry, context))
            runs.append(tuple(result[name] for name in _PINNED_FIELDS))
        assert runs == PRUNE_PIN[scheme]
        if jit:
            assert pipeline._blockcache.hits > 0
